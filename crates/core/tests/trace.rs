//! Trace-timeline integration tests (DESIGN.md §13): timeline determinism,
//! exporter byte-stability, zero-cost-when-off, and the noise-refresh
//! decision contract.
//!
//! - **Timeline determinism**: a fixed-seed session emits byte-identical
//!   trace-event sequences — and byte-identical Chrome-trace / Prometheus
//!   renderings — across worker-pool sizes, because every timestamp comes
//!   from the modeled virtual trace clock, never from wall time.
//! - **Zero-cost-when-off**: logits of a traced run equal those of an
//!   untraced run bit-for-bit; the telemetry probes never touch the
//!   ciphertext path, the call counters, or the enclave RNG.
//! - **Refresh-iff-threshold**: in `Auto` mode the refresh stage runs
//!   exactly when the enclave-measured pre-refresh budget is below
//!   `refresh_threshold_bits`, and the recorded [`NoiseDecision`] trail
//!   says so.

mod testutil;

use hesgx_core::request::{InferRequest, NoiseRefresh, ServePolicy};
use hesgx_core::session::{ParamsPreset, Session, SessionBuilder};
use hesgx_obs::{Recorder, TracePhase};
use hesgx_tee::enclave::Platform;

/// Fixed-seed traced session: `threads` and the optional threshold override
/// are the only variables.
fn traced_session(threads: usize, threshold: Option<u32>) -> (Session, Recorder) {
    let rec = Recorder::with_timeline();
    let mut policy = ServePolicy::new().noise_refresh(NoiseRefresh::Auto);
    if let Some(bits) = threshold {
        policy = policy.refresh_threshold_bits(bits);
    }
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(threads)
        .seed(7)
        .policy(policy)
        .recorder(rec.clone())
        .build(Platform::new(910), testutil::small_hybrid_model())
        .unwrap();
    (session, rec)
}

fn image() -> Vec<i64> {
    (0..64).map(|p| (p % 16) as i64).collect()
}

#[test]
fn timelines_and_exporters_are_byte_identical_across_pool_sizes() {
    let runs: Vec<(String, String, Vec<hesgx_obs::TraceEvent>)> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let (session, rec) = traced_session(threads, None);
            session.serve(InferRequest::single(image())).unwrap();
            (
                rec.export_chrome_trace(),
                rec.export_prometheus(),
                rec.trace_events(),
            )
        })
        .collect();
    for w in runs.windows(2) {
        assert_eq!(w[0].0, w[1].0, "chrome trace diverged across pool sizes");
        assert_eq!(
            w[0].1, w[1].1,
            "prometheus output diverged across pool sizes"
        );
        assert_eq!(
            w[0].2, w[1].2,
            "raw event sequence diverged across pool sizes"
        );
    }
    assert!(!runs[0].2.is_empty(), "a traced inference must emit events");
}

#[test]
fn request_span_wraps_the_timeline_with_a_deterministic_trace_id() {
    let (session, rec) = traced_session(1, None);
    session.serve(InferRequest::single(image())).unwrap();
    let events = rec.trace_events();
    let begin = events
        .iter()
        .find(|e| e.name == "session.request" && e.phase == TracePhase::Begin)
        .expect("request span opens the inference timeline");
    let trace_id = begin
        .args
        .iter()
        .find(|(k, _)| k == "trace_id")
        .map(|(_, v)| v.clone())
        .expect("trace_id arg present");
    assert_eq!(trace_id, "req-0000000000000007-0", "seed 7, first request");
    assert!(
        events
            .iter()
            .any(|e| e.name == "session.request" && e.phase == TracePhase::End),
        "request span closes"
    );
    // Timestamps strictly increase: the virtual trace clock ticks on every
    // event, so ordering is total even for zero-cost instants.
    for w in events.windows(2) {
        assert!(w[0].ts_ns < w[1].ts_ns, "{:?} !< {:?}", w[0], w[1]);
    }
    // A second request gets the next ordinal.
    session.serve(InferRequest::single(image())).unwrap();
    let events = rec.trace_events();
    assert!(events.iter().any(|e| e
        .args
        .iter()
        .any(|(k, v)| k == "trace_id" && v == "req-0000000000000007-1")));
}

#[test]
fn tracing_never_changes_the_inference_result() {
    let untraced = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(1)
        .seed(7)
        .policy(ServePolicy::new().noise_refresh(NoiseRefresh::Auto))
        .build(Platform::new(910), testutil::small_hybrid_model())
        .unwrap();
    let reference = untraced
        .serve(InferRequest::single(image()))
        .unwrap()
        .logits;
    assert_eq!(reference, vec![untraced.model().forward_ints(&image())]);

    for threshold in [None, Some(200)] {
        let (traced, _) = traced_session(1, threshold);
        assert_eq!(
            traced.serve(InferRequest::single(image())).unwrap().logits,
            reference,
            "tracing (threshold {threshold:?}) changed the logits"
        );
    }
}

#[test]
fn auto_refresh_fires_iff_budget_is_below_threshold() {
    // Planner default (10 bits): the small model keeps far more budget, so
    // the decision must be a skip and the stage count stays at 5 (4 layers +
    // the check stage).
    let (session, rec) = traced_session(1, None);
    let metrics = session
        .serve(InferRequest::single(image()))
        .unwrap()
        .metrics;
    assert_eq!(metrics.noise.len(), 1, "{:?}", metrics.noise);
    let d = metrics.noise[0];
    assert!(
        !d.refreshed,
        "budget {} ≥ threshold {}",
        d.before_bits, d.threshold_bits
    );
    assert!(d.before_bits >= d.threshold_bits);
    assert_eq!(d.after_bits, None, "no refresh, no post measurement");
    assert!(metrics
        .stages
        .iter()
        .any(|s| s.name.starts_with("Noise Check")));

    // Threshold raised above the live budget: the same pipeline must take
    // the refresh and record the post-refresh budget.
    let (session, rec_hi) = traced_session(1, Some(200));
    let metrics = session
        .serve(InferRequest::single(image()))
        .unwrap()
        .metrics;
    assert_eq!(metrics.noise.len(), 1);
    let d = metrics.noise[0];
    assert!(
        d.refreshed,
        "budget {} < threshold {}",
        d.before_bits, d.threshold_bits
    );
    assert!(d.before_bits < d.threshold_bits);
    assert!(d.after_bits.is_some(), "taken refresh measures the result");
    assert!(metrics
        .stages
        .iter()
        .any(|s| s.name.starts_with("Noise Refresh")));

    // Both timelines carry the decision instant with the verdict.
    let decision = |rec: &Recorder, taken: &str| {
        rec.trace_events()
            .iter()
            .find(|e| e.name == "noise.refresh.decision")
            .map(|e| e.args.iter().any(|(k, v)| k == "taken" && v == taken))
            .unwrap_or(false)
    };
    assert!(decision(&rec, "false"), "skip decision on the timeline");
    assert!(
        decision(&rec_hi, "true"),
        "refresh decision on the timeline"
    );
}
