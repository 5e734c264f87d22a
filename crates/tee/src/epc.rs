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
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Page size in bytes (SGX uses 4 KiB EPC pages).
pub const PAGE_SIZE: usize = 4096;

/// Default usable EPC capacity (SGX1-era: 128 MiB reserved, ~93 MiB usable).
pub const DEFAULT_EPC_BYTES: usize = 93 * 1024 * 1024;

/// Identifier of a logical enclave memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

#[derive(Debug)]
struct Region {
    pages: usize,
}

/// An LRU-managed enclave page cache. Its faults, evictions and hits are
/// booked only on the installed [`Recorder`] (`epc.*` counters and spans).
#[derive(Debug)]
pub struct Epc {
    capacity_pages: usize,
    heap_pages: usize,
    allocated_pages: usize,
    /// Ordered map: any iteration over EPC state must be deterministic
    /// (replay contract; `unordered-iter` lint).
    regions: BTreeMap<RegionId, Region>,
    next_region: u64,
    /// Resident pages in LRU order (front = least recently used).
    lru: Vec<(RegionId, usize)>,
    resident: BTreeSet<(RegionId, usize)>,
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
            allocated_pages: 0,
            regions: BTreeMap::new(),
            next_region: 1,
            lru: Vec::new(),
            resident: BTreeSet::new(),
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

    /// Allocates a logical region of `bytes` within the enclave heap.
    ///
    /// # Errors
    ///
    /// Fails with [`TeeError::HeapExhausted`] when the enclave heap cannot fit
    /// the region.
    pub fn alloc(&mut self, bytes: usize) -> Result<RegionId> {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        if self.allocated_pages + pages > self.heap_pages {
            return Err(TeeError::HeapExhausted {
                requested: bytes,
                available: (self.heap_pages - self.allocated_pages) * PAGE_SIZE,
            });
        }
        let id = RegionId(self.next_region);
        self.next_region += 1;
        self.allocated_pages += pages;
        self.regions.insert(id, Region { pages });
        Ok(id)
    }

    /// Frees a region, dropping its resident pages.
    ///
    /// # Errors
    ///
    /// Fails when the region does not exist.
    pub fn free(&mut self, id: RegionId) -> Result<()> {
        let region = self
            .regions
            .remove(&id)
            .ok_or(TeeError::UnknownRegion(id.0))?;
        self.allocated_pages -= region.pages;
        self.lru.retain(|&(r, _)| r != id);
        self.resident.retain(|&(r, _)| r != id);
        Ok(())
    }

    /// Touches all pages of `region`, simulating a full scan.
    /// Returns the number of page faults incurred.
    ///
    /// # Errors
    ///
    /// Fails when the region does not exist.
    pub fn touch_region(&mut self, id: RegionId) -> Result<u64> {
        let pages = self
            .regions
            .get(&id)
            .ok_or(TeeError::UnknownRegion(id.0))?
            .pages;
        let mut faults = 0;
        for p in 0..pages {
            if self.touch_page(id, p) {
                faults += 1;
            }
        }
        Ok(faults)
    }

    /// Touches `bytes` worth of pages starting at the region base.
    /// Returns the number of page faults incurred.
    ///
    /// # Errors
    ///
    /// Fails when the region does not exist.
    pub fn touch_bytes(&mut self, id: RegionId, bytes: usize) -> Result<u64> {
        let pages = self
            .regions
            .get(&id)
            .ok_or(TeeError::UnknownRegion(id.0))?
            .pages;
        let touched = bytes.div_ceil(PAGE_SIZE).min(pages).max(1);
        let mut faults = 0;
        for p in 0..touched {
            if self.touch_page(id, p) {
                faults += 1;
            }
        }
        Ok(faults)
    }

    /// Touches one page; returns `true` on fault.
    fn touch_page(&mut self, id: RegionId, page: usize) -> bool {
        let key = (id, page);
        if self.resident.contains(&key) {
            let pressured = self
                .hook
                .as_ref()
                .is_some_and(|h| h.inject(FaultSite::EpcLoad).is_some());
            if pressured {
                // Injected pressure: the page behaves as if a competing
                // enclave evicted it — drop residency and fall through to the
                // fault path so it must be reloaded.
                if let Some(pos) = self.lru.iter().position(|&k| k == key) {
                    self.lru.remove(pos);
                }
                self.resident.remove(&key);
                self.record_eviction();
            } else {
                // Move to MRU position.
                if let Some(pos) = self.lru.iter().position(|&k| k == key) {
                    let item = self.lru.remove(pos);
                    self.lru.push(item);
                }
                self.recorder.incr(counters::EPC_HITS, 1);
                return false;
            }
        }
        // Fault: evict if full, then load.
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
        if extra_eviction && !self.lru.is_empty() {
            // Injected pressure: one extra victim page beyond capacity needs.
            let victim = self.lru.remove(0);
            self.resident.remove(&victim);
            self.record_eviction();
        }
        while self.lru.len() >= self.capacity_pages {
            let victim = self.lru.remove(0);
            self.resident.remove(&victim);
            self.record_eviction();
        }
        self.lru.push(key);
        self.resident.insert(key);
        true
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
        self.lru.len()
    }

    /// Total pages allocated across regions.
    pub fn allocated_pages(&self) -> usize {
        self.allocated_pages
    }

    /// EPC capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page cache booking into a fresh recorder — the ledger the tests
    /// read its faults, evictions and hits from.
    fn recorded(capacity_pages: usize, heap_pages: usize) -> (Epc, Recorder) {
        let rec = Recorder::enabled();
        let mut epc = Epc::new(capacity_pages * PAGE_SIZE, heap_pages * PAGE_SIZE);
        epc.set_recorder(rec.clone());
        (epc, rec)
    }

    #[test]
    fn alloc_within_heap() {
        let mut epc = Epc::new(16 * PAGE_SIZE, 8 * PAGE_SIZE);
        let r = epc.alloc(3 * PAGE_SIZE).unwrap();
        assert_eq!(epc.allocated_pages(), 3);
        epc.free(r).unwrap();
        assert_eq!(epc.allocated_pages(), 0);
    }

    #[test]
    fn heap_exhaustion() {
        let mut epc = Epc::new(16 * PAGE_SIZE, 4 * PAGE_SIZE);
        epc.alloc(3 * PAGE_SIZE).unwrap();
        assert!(matches!(
            epc.alloc(2 * PAGE_SIZE),
            Err(TeeError::HeapExhausted { .. })
        ));
    }

    #[test]
    fn cold_touch_faults_then_hits() {
        let (mut epc, rec) = recorded(16, 8);
        let r = epc.alloc(4 * PAGE_SIZE).unwrap();
        assert_eq!(epc.touch_region(r).unwrap(), 4);
        assert_eq!(epc.touch_region(r).unwrap(), 0);
        assert_eq!(rec.counter(counters::EPC_PAGE_FAULTS), 4);
        assert_eq!(rec.counter(counters::EPC_HITS), 4);
    }

    #[test]
    fn working_set_larger_than_epc_thrashes() {
        // 4-page EPC, two 3-page regions: alternating scans must fault forever.
        let (mut epc, rec) = recorded(4, 8);
        let a = epc.alloc(3 * PAGE_SIZE).unwrap();
        let b = epc.alloc(3 * PAGE_SIZE).unwrap();
        epc.touch_region(a).unwrap();
        epc.touch_region(b).unwrap();
        let faults_a = epc.touch_region(a).unwrap();
        assert!(faults_a > 0, "thrashing working set must keep faulting");
        assert!(rec.counter(counters::EPC_EVICTIONS) > 0);
    }

    #[test]
    fn small_working_set_no_thrash() {
        let (mut epc, rec) = recorded(8, 8);
        let a = epc.alloc(2 * PAGE_SIZE).unwrap();
        let b = epc.alloc(2 * PAGE_SIZE).unwrap();
        epc.touch_region(a).unwrap();
        epc.touch_region(b).unwrap();
        assert_eq!(epc.touch_region(a).unwrap(), 0);
        assert_eq!(epc.touch_region(b).unwrap(), 0);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 0);
    }

    #[test]
    fn unknown_region_rejected() {
        let mut epc = Epc::new(8 * PAGE_SIZE, 8 * PAGE_SIZE);
        assert_eq!(
            epc.touch_region(RegionId(42)),
            Err(TeeError::UnknownRegion(42))
        );
        assert_eq!(epc.free(RegionId(42)), Err(TeeError::UnknownRegion(42)));
    }

    #[test]
    fn load_fault_forces_reload_of_resident_page() {
        use hesgx_chaos::{FaultKind, FaultPlan};
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EpcLoad, 0, FaultKind::Pressure)
                .build(),
        );
        let (mut epc, rec) = recorded(16, 8);
        epc.set_fault_hook(injector);
        let r = epc.alloc(PAGE_SIZE).unwrap();
        assert_eq!(epc.touch_region(r).unwrap(), 1); // cold fault
                                                     // Resident, but the injected pressure evicts it mid-touch: faults
                                                     // again instead of hitting.
        assert_eq!(epc.touch_region(r).unwrap(), 1);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 1);
        // Subsequent touches hit normally (script fired once).
        assert_eq!(epc.touch_region(r).unwrap(), 0);
    }

    #[test]
    fn evict_fault_drops_an_extra_victim() {
        use hesgx_chaos::{FaultKind, FaultPlan};
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EpcEvict, 1, FaultKind::Pressure)
                .build(),
        );
        let (mut epc, rec) = recorded(16, 8);
        epc.set_fault_hook(injector);
        let a = epc.alloc(PAGE_SIZE).unwrap();
        let b = epc.alloc(PAGE_SIZE).unwrap();
        epc.touch_region(a).unwrap(); // cold fault, occurrence 0: no injection
        epc.touch_region(b).unwrap(); // cold fault, occurrence 1: evicts `a`
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 1);
        // `a` was the extra victim, so touching it faults again.
        assert_eq!(epc.touch_region(a).unwrap(), 1);
    }

    #[test]
    fn recorder_counts_every_epc_event() {
        let (mut epc, rec) = recorded(2, 8);
        let r = epc.alloc(3 * PAGE_SIZE).unwrap();
        assert_eq!(epc.touch_region(r).unwrap(), 3); // 1 capacity eviction
        assert_eq!(epc.touch_region(r).unwrap(), 3); // thrashes: 3 more
        assert_eq!(rec.counter(counters::EPC_PAGE_FAULTS), 6);
        assert_eq!(rec.counter(counters::EPC_EVICTIONS), 4);
        assert_eq!(rec.counter(counters::EPC_HITS), 0);
        assert_eq!(rec.span("epc.load").map(|s| s.entries), Some(6));
        assert_eq!(rec.span("epc.evict").map(|s| s.entries), Some(4));
    }

    #[test]
    fn touch_bytes_partial() {
        let mut epc = Epc::new(16 * PAGE_SIZE, 8 * PAGE_SIZE);
        let r = epc.alloc(8 * PAGE_SIZE).unwrap();
        assert_eq!(epc.touch_bytes(r, PAGE_SIZE + 1).unwrap(), 2);
        assert_eq!(epc.touch_bytes(r, PAGE_SIZE).unwrap(), 0);
    }
}
