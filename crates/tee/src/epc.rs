//! Enclave Page Cache model.
//!
//! SGX1 exposes ~93 MiB of usable protected memory; when an enclave's working
//! set exceeds it, pages are evicted (sealed to untrusted DRAM) and reloaded
//! on fault. The paper's §III-B names this paging as the core scaling problem
//! of enclave-only inference, and §IV-C motivates the hybrid split — keeping
//! model weights *outside* — by the paging and side-channel pressure it
//! avoids. This module makes those effects measurable.

use crate::error::{Result, TeeError};
use hesgx_chaos::{FaultHook, FaultSite};
use hesgx_obs::{counters, Recorder};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Page size in bytes (SGX uses 4 KiB EPC pages).
pub const PAGE_SIZE: usize = 4096;

/// Default usable EPC capacity (SGX1-era: 128 MiB reserved, ~93 MiB usable).
pub const DEFAULT_EPC_BYTES: usize = 93 * 1024 * 1024;

/// An LRU-managed enclave page cache behind one enclave heap. The heap is
/// one arena of pages that stay resident until the cache evicts them (SGX1
/// commits the heap at `EINIT`): a page faults when it is not resident —
/// on its first touch, or after an eviction — and at no other time. Its
/// faults, evictions and hits are booked only on the installed [`Recorder`]
/// (`epc.*` counters and spans).
#[derive(Debug)]
pub struct Epc {
    capacity_pages: usize,
    heap_pages: usize,
    /// Resident page → the tick of its last touch. Ordered maps: any
    /// iteration over EPC state must be deterministic (replay contract;
    /// `unordered-iter` lint).
    resident: BTreeMap<usize, u64>,
    /// Tick of a last touch → its page; the first entry is the least
    /// recently used resident page.
    lru: BTreeMap<u64, usize>,
    tick: u64,
    hook: Option<Arc<dyn FaultHook>>,
    recorder: Recorder,
}

impl Epc {
    /// Creates a page cache with `capacity_bytes` of protected memory backing
    /// an enclave heap of `heap_bytes`.
    pub fn new(capacity_bytes: usize, heap_bytes: usize) -> Self {
        Epc {
            capacity_pages: capacity_bytes.div_ceil(PAGE_SIZE).max(1),
            heap_pages: heap_bytes.div_ceil(PAGE_SIZE),
            resident: BTreeMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            hook: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a fault hook consulted on page touches ([`FaultSite::EpcLoad`]
    /// for resident hits, [`FaultSite::EpcEvict`] on the fault path). Injected
    /// EPC faults model *pressure* from competing enclaves: touches still
    /// succeed, but pay extra faults and evictions.
    pub fn set_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.hook = Some(hook);
    }

    /// Installs an observability recorder. Paging activity is recorded as
    /// `epc.load` / `epc.evict` span entries (count only — the nanoseconds
    /// of paging are charged in the owning ECALL's `paging_ns` term) plus
    /// `epc.*` counters.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Touches the heap's first `bytes`, pages `[0, ⌈bytes / PAGE_SIZE⌉)`, in
    /// order. Returns the number of page faults incurred.
    ///
    /// # Errors
    ///
    /// Fails with [`TeeError::HeapExhausted`], before touching any page, when
    /// `bytes` runs past the enclave heap.
    pub fn touch(&mut self, bytes: usize) -> Result<u64> {
        let pages = bytes.div_ceil(PAGE_SIZE);
        if pages > self.heap_pages {
            return Err(TeeError::HeapExhausted {
                requested: bytes,
                available: self.heap_pages * PAGE_SIZE,
            });
        }
        Ok((0..pages).filter(|&page| self.touch_page(page)).count() as u64)
    }

    /// Touches one page; returns `true` on fault.
    fn touch_page(&mut self, page: usize) -> bool {
        if let Some(tick) = self.resident.remove(&page) {
            self.lru.remove(&tick);
            let pressured = self
                .hook
                .as_ref()
                .is_some_and(|h| h.inject(FaultSite::EpcLoad).is_some());
            if !pressured {
                self.stamp(page);
                self.recorder.incr(counters::EPC_HITS, 1);
                return false;
            }
            // Injected pressure: the page behaves as if a competing enclave
            // evicted it, so it faults and must be reloaded.
            self.record_eviction();
        }
        let _prof = hesgx_obs::prof::span("epc.load");
        self.recorder.record_zero_attempt("epc.load");
        self.recorder.incr(counters::EPC_PAGE_FAULTS, 1);
        if self.recorder.trace_enabled() {
            // Inside an ECALL slice on the timeline: touches happen on the
            // calling thread, so instant order is deterministic.
            self.recorder
                .trace_instant("epc.load", &[("page", page.to_string())]);
        }
        let extra_eviction = self
            .hook
            .as_ref()
            .is_some_and(|h| h.inject(FaultSite::EpcEvict).is_some());
        if extra_eviction {
            // Injected pressure: one extra victim beyond what capacity needs.
            self.evict_lru();
        }
        while self.resident.len() >= self.capacity_pages {
            self.evict_lru();
        }
        self.stamp(page);
        true
    }

    /// Makes `page` resident as the most recently used.
    fn stamp(&mut self, page: usize) {
        self.tick += 1;
        self.resident.insert(page, self.tick);
        self.lru.insert(self.tick, page);
    }

    /// Evicts the least recently used resident page, if any.
    fn evict_lru(&mut self) {
        if let Some((_, victim)) = self.lru.pop_first() {
            self.resident.remove(&victim);
            self.record_eviction();
        }
    }

    /// Books one eviction on every observability face.
    fn record_eviction(&self) {
        let _prof = hesgx_obs::prof::span("epc.evict");
        self.recorder.record_zero_attempt("epc.evict");
        self.recorder.incr(counters::EPC_EVICTIONS, 1);
        if self.recorder.trace_enabled() {
            self.recorder.trace_instant("epc.evict", &[]);
        }
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// EPC capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_chaos::{FaultKind, FaultPlan};

    /// A page cache booking into a fresh recorder — the ledger the tests
    /// read its faults, evictions and hits from.
    fn recorded(capacity_pages: usize, heap_pages: usize) -> (Epc, Recorder) {
        let rec = Recorder::enabled();
        let mut epc = Epc::new(capacity_pages * PAGE_SIZE, heap_pages * PAGE_SIZE);
        epc.set_recorder(rec.clone());
        (epc, rec)
    }

    #[test]
    fn heap_exhaustion() {
        let (mut epc, rec) = recorded(16, 4);
        assert_eq!(
            epc.touch(4 * PAGE_SIZE + 1),
            Err(TeeError::HeapExhausted {
                requested: 4 * PAGE_SIZE + 1,
                available: 4 * PAGE_SIZE,
            })
        );
        assert_eq!(epc.resident_pages(), 0);
        assert_eq!(rec.counter(counters::EPC_PAGE_FAULTS), 0);
        assert_eq!(epc.touch(4 * PAGE_SIZE), Ok(4));
    }

    #[test]
    fn cold_touch_faults_then_hits() {
        let (mut epc, rec) = recorded(16, 8);
        assert_eq!(epc.touch(4 * PAGE_SIZE).unwrap(), 4);
        assert_eq!(epc.touch(4 * PAGE_SIZE).unwrap(), 0);
        // A shorter prefix is resident; a partial page is a whole page.
        assert_eq!(epc.touch(PAGE_SIZE + 1).unwrap(), 0);
        assert_eq!(epc.touch(5 * PAGE_SIZE + 1).unwrap(), 2);
        assert_eq!(epc.touch(0).unwrap(), 0);
        assert_eq!(rec.counter(counters::EPC_PAGE_FAULTS), 6);
        assert_eq!(rec.counter(counters::EPC_HITS), 10);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 0);
    }

    #[test]
    fn working_set_larger_than_epc_thrashes() {
        // A prefix one page past capacity faults on every pass.
        let (mut epc, rec) = recorded(4, 8);
        for _ in 0..3 {
            assert_eq!(epc.touch(5 * PAGE_SIZE).unwrap(), 5);
            assert_eq!(epc.resident_pages(), 4);
        }
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 11);
        assert_eq!(rec.counter(counters::EPC_HITS), 0);
    }

    #[test]
    fn small_working_set_no_thrash() {
        // Two prefixes the EPC holds, touched in turn: each faults once.
        let (mut epc, rec) = recorded(8, 16);
        assert_eq!(epc.touch(2 * PAGE_SIZE).unwrap(), 2);
        assert_eq!(epc.touch(8 * PAGE_SIZE).unwrap(), 6);
        assert_eq!(epc.touch(2 * PAGE_SIZE).unwrap(), 0);
        assert_eq!(epc.touch(8 * PAGE_SIZE).unwrap(), 0);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 0);
    }

    #[test]
    fn load_fault_forces_reload_of_resident_page() {
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EpcLoad, 0, FaultKind::Pressure)
                .build(),
        );
        let (mut epc, rec) = recorded(16, 8);
        epc.set_fault_hook(injector);
        assert_eq!(epc.touch(PAGE_SIZE).unwrap(), 1); // cold fault
                                                      // Resident, but the injected pressure evicts it mid-touch: faults
                                                      // again instead of hitting.
        assert_eq!(epc.touch(PAGE_SIZE).unwrap(), 1);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 1);
        // Subsequent touches hit normally (script fired once).
        assert_eq!(epc.touch(PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn evict_fault_drops_an_extra_victim() {
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EpcEvict, 1, FaultKind::Pressure)
                .build(),
        );
        let (mut epc, rec) = recorded(16, 8);
        epc.set_fault_hook(injector);
        epc.touch(PAGE_SIZE).unwrap(); // page 0 cold, occurrence 0: no injection
        epc.touch(2 * PAGE_SIZE).unwrap(); // page 1 cold, occurrence 1: evicts page 0
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 1);
        // Page 0 was the extra victim, so touching it faults again.
        assert_eq!(epc.touch(PAGE_SIZE).unwrap(), 1);
    }

    #[test]
    fn pressure_adds_faults_on_a_warm_heap() {
        // The cold pass consults the evict site for its four faults
        // (occurrences 0–3); the warm pass's first hit is the load site's
        // occurrence 0 and its reload the evict site's occurrence 4.
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EpcLoad, 0, FaultKind::Pressure)
                .script(FaultSite::EpcEvict, 4, FaultKind::Pressure)
                .build(),
        );
        let (mut epc, rec) = recorded(16, 8);
        epc.set_fault_hook(injector);
        assert_eq!(epc.touch(4 * PAGE_SIZE).unwrap(), 4);
        // Page 0 is pressured out and reloaded, its reload evicts page 1,
        // which faults in turn; pages 2 and 3 hit.
        assert_eq!(epc.touch(4 * PAGE_SIZE).unwrap(), 2);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 2);
        assert_eq!(epc.touch(4 * PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn recorder_counts_every_epc_event() {
        let (mut epc, rec) = recorded(2, 8);
        assert_eq!(epc.touch(3 * PAGE_SIZE).unwrap(), 3); // 1 capacity eviction
        assert_eq!(epc.touch(3 * PAGE_SIZE).unwrap(), 3); // thrashes: 3 more
        assert_eq!(rec.counter(counters::EPC_PAGE_FAULTS), 6);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 4);
        assert_eq!(rec.counter(counters::EPC_HITS), 0);
        assert_eq!(rec.span("epc.load").map(|s| s.entries), Some(6));
        assert_eq!(rec.span("epc.evict").map(|s| s.entries), Some(4));
    }
}
