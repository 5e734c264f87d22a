//! Enclave lifecycle, ECALL dispatch, and the simulated platform.
//!
//! [`Platform`] models one SGX-capable CPU: it owns the hardware root secret
//! (sealing), the report key (local attestation), and a quoting enclave.
//! [`EnclaveBuilder`] plays `ECREATE`/`EADD`/`EINIT`, hashing the loaded code
//! and configuration into a measurement. [`Enclave::ecall`] executes a closure
//! "inside" the enclave: the body runs for real while the boundary crossing,
//! marshalling, slowdown, and paging are charged on the virtual clock and
//! booked on the observability recorder — the one ledger of every crossing
//! and page fault.

use crate::attestation::{QuotingEnclave, Report};
use crate::cost::{CostBreakdown, CostModel, VirtualClock};
use crate::epc::{Epc, DEFAULT_EPC_BYTES};
use crate::error::{Result, TeeError};
use crate::sealing::{self, SealedBlob};
use crate::wall::WallTimer;
use hesgx_chaos::{FaultHook, FaultKind, FaultSite};
use hesgx_crypto::sha256::Sha256;
use hesgx_obs::{counters, Recorder, Scope};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One SGX-capable machine: hardware secrets plus the quoting enclave.
pub struct Platform {
    platform_id: [u8; 32],
    secret: [u8; 32],
    report_key: [u8; 32],
    qe: QuotingEnclave,
    /// Enclaves launched on this platform so far — see [`Enclave::launch`].
    launches: AtomicU64,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The hardware root secret and report key stay out of any log line
        // (hesgx-lint: secret-debug).
        f.debug_struct("Platform")
            .field("platform_id", &self.platform_id)
            .field("secret", &"<redacted>")
            .field("report_key", &"<redacted>")
            .finish()
    }
}

impl Platform {
    /// Creates a platform with secrets derived deterministically from `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        let root = hesgx_crypto::rng::ChaChaRng::from_seed(seed);
        let mut id_rng = root.fork("platform-id");
        let mut secret_rng = root.fork("platform-secret");
        let mut report_rng = root.fork("platform-report-key");
        let mut platform_id = [0u8; 32];
        id_rng.fill_bytes(&mut platform_id);
        let mut secret = [0u8; 32];
        secret_rng.fill_bytes(&mut secret);
        let mut report_key = [0u8; 32];
        report_rng.fill_bytes(&mut report_key);
        Arc::new(Platform {
            platform_id,
            secret,
            report_key,
            qe: QuotingEnclave::new(platform_id, report_key, seed ^ 0x5147_5545),
            launches: AtomicU64::new(0),
        })
    }

    /// The platform identifier.
    pub fn id(&self) -> [u8; 32] {
        self.platform_id
    }

    /// The platform's quoting enclave.
    pub fn quoting_enclave(&self) -> &QuotingEnclave {
        &self.qe
    }
}

/// Builder for [`Enclave`] (the `ECREATE`/`EADD`/`EINIT` sequence).
#[derive(Debug)]
pub struct EnclaveBuilder {
    name: String,
    code: Vec<u8>,
    heap_bytes: usize,
    epc_bytes: usize,
    cost_model: CostModel,
    seed: u64,
    hook: Option<Arc<dyn FaultHook>>,
    recorder: Recorder,
}

impl EnclaveBuilder {
    /// Starts building an enclave named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        EnclaveBuilder {
            name: name.into(),
            code: Vec::new(),
            heap_bytes: 64 * 1024 * 1024,
            epc_bytes: DEFAULT_EPC_BYTES,
            cost_model: CostModel::default(),
            seed: 0,
            hook: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Adds "code" pages (any identifying bytes) to the measurement.
    pub fn add_code(mut self, code: &[u8]) -> Self {
        self.code.extend_from_slice(code);
        self
    }

    /// Sets the enclave heap size.
    pub fn heap_bytes(mut self, bytes: usize) -> Self {
        self.heap_bytes = bytes;
        self
    }

    /// Sets the platform EPC capacity available to this enclave.
    pub fn epc_bytes(mut self, bytes: usize) -> Self {
        self.epc_bytes = bytes;
        self
    }

    /// Overrides the cost model (e.g. [`CostModel::fake_sgx`]).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Seeds the deterministic jitter generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault hook consulted at the enclave's fault sites
    /// (ECALL enter/exit, EPC load/evict, seal/unseal). No hook — the
    /// default — means no consultation at all.
    pub fn fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Installs an observability recorder. Every ECALL records an
    /// `ecall.<name>` span plus boundary counters; the EPC records paging
    /// counters. The default is the disabled recorder, which costs nothing.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Initializes the enclave on `platform`, fixing its measurement.
    pub fn build(self, platform: Arc<Platform>) -> Enclave {
        let mut h = Sha256::new();
        h.update(b"hesgx-enclave-v1");
        h.update(self.name.as_bytes());
        h.update(&self.code);
        h.update(&(self.heap_bytes as u64).to_le_bytes());
        let measurement = h.finalize();
        let mut epc = Epc::new(self.epc_bytes, self.heap_bytes);
        if let Some(hook) = &self.hook {
            epc.set_fault_hook(hook.clone());
        }
        epc.set_recorder(self.recorder.clone());
        Enclave {
            name: self.name,
            measurement,
            launch: platform.launches.fetch_add(1, Ordering::Relaxed),
            platform,
            vclock: VirtualClock::new(self.cost_model, self.seed),
            epc: Mutex::new(epc),
            seal_counter: AtomicU64::new(1),
            hook: self.hook,
            recorder: self.recorder,
        }
    }
}

/// The one spelling of ECALL `name`'s recorder span, timeline slice and
/// profiler frame.
fn ecall_span(name: &str) -> String {
    ["ecall.", name].concat()
}

/// A running enclave instance.
#[derive(Debug)]
pub struct Enclave {
    name: String,
    measurement: [u8; 32],
    launch: u64,
    platform: Arc<Platform>,
    vclock: VirtualClock,
    epc: Mutex<Epc>,
    seal_counter: AtomicU64,
    hook: Option<Arc<dyn FaultHook>>,
    recorder: Recorder,
}

/// Execution context handed to an ECALL body; tracks memory touches so
/// they can be charged.
#[derive(Debug)]
pub struct EnclaveCtx<'a> {
    epc: &'a Mutex<Epc>,
    faults: u64,
    cpu_ns: u64,
}

impl EnclaveCtx<'_> {
    /// Touches the first `bytes` of the enclave heap, recording any page
    /// faults: a page faults only when it is not resident.
    ///
    /// # Errors
    ///
    /// Fails, touching nothing, when `bytes` runs past the heap.
    pub fn touch(&mut self, bytes: usize) -> Result<()> {
        self.faults += self.epc.lock().touch(bytes)?;
        Ok(())
    }

    /// Reports aggregate CPU time consumed by the ECALL body.
    ///
    /// The dispatcher measures the body's *wall-clock* time; when the body
    /// fans work out across worker threads, wall time undercounts the CPU
    /// work the memory-encryption engine slows down. A parallel body sums
    /// its per-task CPU time and reports it here; the call is then charged
    /// `max(wall, reported_cpu)` so the slowdown factor applies to the full
    /// batch of work, not just the elapsed span.
    pub fn record_cpu_ns(&mut self, ns: u64) {
        self.cpu_ns = self.cpu_ns.saturating_add(ns);
    }
}

impl Enclave {
    /// The enclave's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclave measurement (MRENCLAVE analogue).
    pub fn measurement(&self) -> &[u8; 32] {
        &self.measurement
    }

    /// This instance's 0-based launch ordinal on its platform: every
    /// [`EnclaveBuilder::build`] on one [`Platform`] gets the next one. It is
    /// the deterministic stand-in for the hardware randomness that keeps two
    /// instances of one enclave image — a fleet's workers, or an enclave and
    /// its re-provisioned successor — from ever sharing an
    /// encryption-randomness stream; identity (measurement, sealing and
    /// report keys) does not depend on it.
    pub fn launch(&self) -> u64 {
        self.launch
    }

    /// The platform hosting this enclave.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// Executes `body` inside the enclave.
    ///
    /// `input_bytes` / `output_bytes` model the marshalled argument and result
    /// sizes. Returns the body's value and the charged cost breakdown.
    pub fn ecall<R>(
        &self,
        name: &str,
        input_bytes: usize,
        output_bytes: usize,
        body: impl FnOnce(&mut EnclaveCtx<'_>) -> R,
    ) -> (R, CostBreakdown) {
        // The slice and the frame open before the body, so EPC load/evict
        // instants and frames recorded during the body nest inside them.
        let span = ecall_span(name);
        let scope = self
            .recorder
            .open(&span, &[("bytes_in", input_bytes as u64)]);
        hesgx_obs::prof::add_bytes((input_bytes + output_bytes) as u64);
        let mut ctx = EnclaveCtx {
            epc: &self.epc,
            faults: 0,
            cpu_ns: 0,
        };
        let start = WallTimer::start();
        let result = body(&mut ctx);
        // Parallel bodies report their summed per-task CPU time; charge
        // whichever is larger so fanned-out work still pays the in-enclave
        // slowdown on every CPU-nanosecond of the batch.
        let real_ns = start.elapsed_ns().max(ctx.cpu_ns);
        let copied = (input_bytes + output_bytes) as u64;
        let breakdown = self.book_crossing(&span, Some(scope), copied, real_ns, ctx.faults);
        (result, breakdown)
    }

    /// Charges one boundary crossing (EENTER + EEXIT) to the virtual clock
    /// and books it under `span` on the recorder — the one ledger of a
    /// crossing. `scope` is what [`Enclave::ecall`] opened around the body
    /// that ran; `None` is an aborted `EENTER`: the body never ran, so the
    /// failed crossing and the marshalled input are all there is to charge,
    /// and the timeline gets an instant instead of a slice to close.
    fn book_crossing(
        &self,
        span: &str,
        scope: Option<Scope<'_>>,
        copied: u64,
        real_ns: u64,
        faults: u64,
    ) -> CostBreakdown {
        const TRANSITIONS: u64 = 2;
        let breakdown = self.vclock.charge(real_ns, TRANSITIONS, copied, faults);
        if self.recorder.is_enabled() {
            self.recorder.incr(counters::ECALLS, 1);
            self.recorder.incr(counters::ECALL_TRANSITIONS, TRANSITIONS);
            self.recorder.incr(counters::BYTES_MARSHALLED, copied);
            self.recorder.observe("ecall.bytes", copied);
            self.recorder.observe("ecall.epc_faults", faults);
        }
        match scope {
            Some(scope) => {
                // The trace clock advances by the call's *modeled* cost
                // before the slice closes.
                self.recorder.trace_advance(breakdown.model_ns());
                scope.close(breakdown);
            }
            None => {
                self.recorder.record_span(span, breakdown);
                if self.recorder.trace_enabled() {
                    self.recorder.trace_instant(
                        &format!("{span}.aborted"),
                        &[("bytes_in", copied.to_string())],
                    );
                    self.recorder.trace_advance(breakdown.model_ns());
                }
            }
        }
        breakdown
    }

    /// Consults the fault hook, if one is installed.
    fn consult(&self, site: FaultSite) -> Option<FaultKind> {
        self.hook.as_ref().and_then(|h| h.inject(site))
    }

    /// Executes `body` inside the enclave, subject to injected boundary
    /// faults.
    ///
    /// Same contract as [`Enclave::ecall`], except the fault hook is
    /// consulted at the boundary: a fault at [`FaultSite::EcallEnter`] aborts
    /// the `EENTER` transition — the body never runs, and the caller is
    /// charged only the failed crossing plus the marshalled input copy. A
    /// fault at [`FaultSite::EcallExit`] loses the result after the body ran —
    /// the full call cost is charged. Both surface as
    /// [`TeeError::Interrupted`], which is transient: the caller may retry.
    /// With no hook installed this is exactly `ecall` wrapped in `Ok`.
    ///
    /// # Errors
    ///
    /// Fails with [`TeeError::Interrupted`] when a fault is injected at
    /// either boundary site.
    pub fn ecall_fallible<R>(
        &self,
        name: &str,
        input_bytes: usize,
        output_bytes: usize,
        body: impl FnOnce(&mut EnclaveCtx<'_>) -> R,
    ) -> (Result<R>, CostBreakdown) {
        if self.consult(FaultSite::EcallEnter).is_some() {
            let span = ecall_span(name);
            let breakdown = self.book_crossing(&span, None, input_bytes as u64, 0, 0);
            return (Err(TeeError::Interrupted(FaultSite::EcallEnter)), breakdown);
        }
        let (result, breakdown) = self.ecall(name, input_bytes, output_bytes, body);
        if self.consult(FaultSite::EcallExit).is_some() {
            return (Err(TeeError::Interrupted(FaultSite::EcallExit)), breakdown);
        }
        (Ok(result), breakdown)
    }

    /// Seals `data` to this enclave's identity (charged as an ECALL).
    ///
    /// An injected fault at [`FaultSite::Seal`] models the blob rotting on
    /// untrusted storage: the returned blob is silently damaged and the
    /// corruption only surfaces at the next [`Enclave::unseal`].
    pub fn seal(&self, data: &[u8]) -> (SealedBlob, CostBreakdown) {
        let nonce = self.seal_counter.fetch_add(1, Ordering::Relaxed);
        let (mut blob, cost) = self.ecall("seal", data.len(), data.len() + 44, |_| {
            sealing::seal(&self.platform.secret, &self.measurement, nonce, data)
        });
        if self.consult(FaultSite::Seal).is_some() {
            blob.corrupt();
        }
        (blob, cost)
    }

    /// Unseals a blob sealed by this enclave identity.
    ///
    /// # Errors
    ///
    /// Fails with [`crate::error::TeeError::SealedBlobCorrupted`] on tampering
    /// or identity mismatch — including an injected fault at
    /// [`FaultSite::Unseal`], which models the stored blob failing its
    /// integrity check.
    pub fn unseal(&self, blob: &SealedBlob) -> (Result<Vec<u8>>, CostBreakdown) {
        let (mut result, cost) = self.ecall("unseal", blob.byte_len(), blob.byte_len(), |_| {
            sealing::unseal(&self.platform.secret, &self.measurement, blob)
        });
        if self.consult(FaultSite::Unseal).is_some() {
            result = Err(TeeError::SealedBlobCorrupted);
        }
        (result, cost)
    }

    /// The installed fault hook, if any (used by the recovery layer to report
    /// its decisions back to the same recorder that injected the faults).
    pub fn fault_hook(&self) -> Option<&Arc<dyn FaultHook>> {
        self.hook.as_ref()
    }

    /// The observability recorder this enclave reports into (the disabled
    /// no-op recorder unless one was installed at build time).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Produces an attestation report carrying `user_data` (EREPORT).
    pub fn create_report(&self, user_data: Vec<u8>) -> Report {
        Report::new(&self.platform.report_key, self.measurement, user_data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TeeError;

    fn platform() -> Arc<Platform> {
        Platform::new(1)
    }

    #[test]
    fn measurement_depends_on_code() {
        let p = platform();
        let a = EnclaveBuilder::new("e").add_code(b"v1").build(p.clone());
        let b = EnclaveBuilder::new("e").add_code(b"v2").build(p.clone());
        let c = EnclaveBuilder::new("e").add_code(b"v1").build(p);
        assert_ne!(a.measurement(), b.measurement());
        assert_eq!(a.measurement(), c.measurement());
    }

    #[test]
    fn ecall_returns_value_and_charges_time() {
        let rec = Recorder::enabled();
        let e = EnclaveBuilder::new("e")
            .recorder(rec.clone())
            .build(platform());
        let (value, cost) = e.ecall("add", 16, 8, |_| 2 + 2);
        assert_eq!(value, 4);
        assert!(cost.transition_ns > 0);
        assert_eq!(rec.span("ecall.add").map(|s| s.cost), Some(cost));
    }

    #[test]
    fn ecalls_logged_on_monitor() {
        let rec = Recorder::enabled();
        let e = EnclaveBuilder::new("e")
            .recorder(rec.clone())
            .build(platform());
        e.ecall("f", 0, 0, |_| ());
        e.ecall("g", 0, 0, |_| ());
        assert_eq!(rec.counter(counters::ECALLS), 2);
        assert_eq!(rec.counter(counters::ECALL_TRANSITIONS), 4);
    }

    #[test]
    fn paging_pressure_visible() {
        // Enclave with tiny EPC: touching a heap prefix twice the EPC's
        // size, twice, faults a lot.
        let rec = Recorder::enabled();
        let e = EnclaveBuilder::new("e")
            .epc_bytes(8 * crate::epc::PAGE_SIZE)
            .heap_bytes(32 * crate::epc::PAGE_SIZE)
            .recorder(rec.clone())
            .build(platform());
        let ((), cost) = e.ecall("scan", 0, 0, |ctx| {
            ctx.touch(16 * crate::epc::PAGE_SIZE).unwrap();
            ctx.touch(16 * crate::epc::PAGE_SIZE).unwrap();
        });
        assert!(cost.paging_ns > 0);
        assert!(rec.counter(counters::EPC_EVICTIONS) > 0);
        assert!(rec.counter(counters::EPC_PAGE_FAULTS) >= 16);
    }

    #[test]
    fn seal_roundtrip_same_enclave() {
        let p = platform();
        let e = EnclaveBuilder::new("e").add_code(b"code").build(p);
        let (blob, _) = e.seal(b"fv-secret-key");
        let (data, _) = e.unseal(&blob);
        assert_eq!(data.unwrap(), b"fv-secret-key");
    }

    #[test]
    fn seal_rejected_across_enclaves() {
        let p = platform();
        let a = EnclaveBuilder::new("a").add_code(b"A").build(p.clone());
        let b = EnclaveBuilder::new("b").add_code(b"B").build(p);
        let (blob, _) = a.seal(b"secret");
        let (res, _) = b.unseal(&blob);
        assert_eq!(res, Err(TeeError::SealedBlobCorrupted));
    }

    #[test]
    fn report_to_quote_flow() {
        let p = platform();
        let e = EnclaveBuilder::new("e").add_code(b"code").build(p.clone());
        let report = e.create_report(b"payload".to_vec());
        let quote = p.quoting_enclave().quote(&report).unwrap();
        assert_eq!(&quote.measurement, e.measurement());
        assert_eq!(quote.user_data, b"payload");
    }

    #[test]
    fn reported_cpu_time_floors_the_charge() {
        let e = EnclaveBuilder::new("par").build(platform());
        // A body that "ran" 10 ms of CPU work across workers while the wall
        // measurement saw almost nothing must still be charged the CPU time.
        let ((), cost) = e.ecall("fanout", 0, 0, |ctx| {
            ctx.record_cpu_ns(10_000_000);
        });
        assert!(cost.real_ns >= 10_000_000);
        // Without a report, wall time is charged as before.
        let ((), cost) = e.ecall("plain", 0, 0, |_| ());
        assert!(cost.real_ns < 10_000_000);
    }

    #[test]
    fn ecall_fallible_without_hook_is_plain_ecall() {
        let e = EnclaveBuilder::new("e").build(platform());
        let (value, cost) = e.ecall_fallible("add", 16, 8, |_| 2 + 2);
        assert_eq!(value, Ok(4));
        assert!(cost.transition_ns > 0);
    }

    #[test]
    fn enter_fault_skips_body_and_charges_partial_cost() {
        use hesgx_chaos::{FaultPlan, FaultSite};
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EcallEnter, 0, hesgx_chaos::FaultKind::Transient)
                .build(),
        );
        let e = EnclaveBuilder::new("e")
            .fault_hook(injector.clone())
            .build(platform());
        let mut ran = false;
        let (res, cost) = e.ecall_fallible("f", 64, 8, |_| ran = true);
        assert_eq!(res, Err(TeeError::Interrupted(FaultSite::EcallEnter)));
        assert!(!ran, "body must not run when EENTER aborts");
        assert!(cost.transition_ns > 0);
        assert!(res.unwrap_err().is_transient());
        // Retry succeeds (the script fired once).
        let (res, _) = e.ecall_fallible("f", 64, 8, |_| 7);
        assert_eq!(res, Ok(7));
        assert_eq!(injector.report().injected_total(), 1);
    }

    #[test]
    fn exit_fault_loses_result_after_body_ran() {
        use hesgx_chaos::{FaultKind, FaultPlan, FaultSite};
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EcallExit, 0, FaultKind::Transient)
                .build(),
        );
        let e = EnclaveBuilder::new("e")
            .fault_hook(injector)
            .build(platform());
        let mut ran = false;
        let (res, cost) = e.ecall_fallible("f", 0, 0, |_| ran = true);
        assert_eq!(res, Err(TeeError::Interrupted(FaultSite::EcallExit)));
        assert!(ran, "body runs before the result is lost at EEXIT");
        assert!(cost.transition_ns > 0);
    }

    #[test]
    fn seal_fault_corrupts_blob_detected_at_unseal() {
        use hesgx_chaos::{FaultKind, FaultPlan, FaultSite};
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::Seal, 0, FaultKind::Corruption)
                .build(),
        );
        let e = EnclaveBuilder::new("e")
            .fault_hook(injector)
            .build(platform());
        let (blob, _) = e.seal(b"key material");
        let (res, _) = e.unseal(&blob);
        assert_eq!(res, Err(TeeError::SealedBlobCorrupted));
        // The next seal is clean: corruption was a one-shot script.
        let (blob, _) = e.seal(b"key material");
        let (res, _) = e.unseal(&blob);
        assert_eq!(res, Ok(b"key material".to_vec()));
    }

    #[test]
    fn unseal_fault_rejects_a_good_blob() {
        use hesgx_chaos::{FaultKind, FaultPlan, FaultSite};
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::Unseal, 0, FaultKind::Corruption)
                .build(),
        );
        let e = EnclaveBuilder::new("e")
            .fault_hook(injector)
            .build(platform());
        let (blob, _) = e.seal(b"data");
        let (res, _) = e.unseal(&blob);
        assert_eq!(res, Err(TeeError::SealedBlobCorrupted));
        // The blob itself is intact; a retry unseals it.
        let (res, _) = e.unseal(&blob);
        assert_eq!(res, Ok(b"data".to_vec()));
    }

    #[test]
    fn recorder_sees_ecall_spans_and_counters() {
        let rec = Recorder::enabled();
        let e = EnclaveBuilder::new("e")
            .recorder(rec.clone())
            .build(platform());
        let (_, cost) = e.ecall("work", 100, 28, |_| 1 + 1);
        let span = rec.span("ecall.work").expect("span recorded");
        assert_eq!(span.entries, 1);
        assert_eq!(span.cost.transition_ns, cost.transition_ns);
        assert_eq!(span.cost.copy_ns, cost.copy_ns);
        assert_eq!(rec.counter(counters::ECALLS), 1);
        assert_eq!(rec.counter(counters::ECALL_TRANSITIONS), 2);
        assert_eq!(rec.counter(counters::BYTES_MARSHALLED), 128);
    }

    #[test]
    fn recorder_books_the_aborted_enter_crossing() {
        use hesgx_chaos::{FaultKind, FaultPlan, FaultSite};
        let rec = Recorder::enabled();
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::EcallEnter, 0, FaultKind::Transient)
                .build(),
        );
        let e = EnclaveBuilder::new("e")
            .fault_hook(injector)
            .recorder(rec.clone())
            .build(platform());
        let (res, cost) = e.ecall_fallible("f", 64, 8, |_| ());
        assert!(res.is_err());
        let span = rec.span("ecall.f").expect("aborted crossing recorded");
        assert_eq!(span.entries, 1);
        assert_eq!(span.cost.transition_ns, cost.transition_ns);
        assert_eq!(rec.counter(counters::BYTES_MARSHALLED), 64);
    }

    #[test]
    fn fake_sgx_model_charges_no_overhead() {
        let e = EnclaveBuilder::new("fake")
            .cost_model(CostModel::fake_sgx())
            .build(platform());
        let ((), cost) = e.ecall("work", 1024, 1024, |_| ());
        assert_eq!(cost.transition_ns, 0);
        assert_eq!(cost.copy_ns, 0);
        assert_eq!(cost.slowdown_ns, 0);
    }
}
