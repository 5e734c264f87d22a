//! Trace-timeline integration tests (DESIGN.md §13): timeline determinism,
//! exporter byte-stability, and zero-cost-when-off.
//!
//! - **Timeline determinism**: a fixed-seed session emits byte-identical
//!   trace-event sequences — and byte-identical Chrome-trace / Prometheus
//!   renderings — across worker-pool sizes, because every timestamp comes
//!   from the modeled virtual trace clock, never from wall time.
//! - **Zero-cost-when-off**: logits of a traced run equal those of an
//!   untraced run bit-for-bit; the telemetry probes never touch the
//!   ciphertext path, the call counters, or the enclave RNG.

mod testutil;

use hesgx_core::request::InferRequest;
use hesgx_core::session::{ParamsPreset, Session, SessionBuilder};
use hesgx_obs::{Recorder, TracePhase};
use hesgx_tee::enclave::Platform;

/// Fixed-seed traced session: `threads` is the only variable.
fn traced_session(threads: usize) -> (Session, Recorder) {
    let rec = Recorder::with_timeline();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(threads)
        .seed(7)
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
            let (session, rec) = traced_session(threads);
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
    let (session, rec) = traced_session(1);
    let response = session.serve(InferRequest::single(image())).unwrap();
    assert_eq!(response.trace_id, "req-0000000000000007-0");
    // The slice carries the facts the trace ID spells: seed 7, request 0.
    let request_args = |events: &[hesgx_obs::TraceEvent], ordinal: &str| {
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.name == "session.request" && e.phase == TracePhase::Begin)
            .collect();
        let arg = |e: &hesgx_obs::TraceEvent, key: &str| {
            e.args
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        begins.iter().any(|e| {
            arg(e, "seed").as_deref() == Some("7")
                && arg(e, "request").as_deref() == Some(ordinal)
                && arg(e, "batch").as_deref() == Some("1")
        })
    };
    let events = rec.trace_events();
    assert!(request_args(&events, "0"), "seed 7, first request");
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
    assert!(
        request_args(&rec.trace_events(), "1"),
        "seed 7, second request"
    );
}

#[test]
fn tracing_never_changes_the_inference_result() {
    let untraced = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(1)
        .seed(7)
        .build(Platform::new(910), testutil::small_hybrid_model())
        .unwrap();
    let reference = untraced
        .serve(InferRequest::single(image()))
        .unwrap()
        .logits;
    assert_eq!(reference, vec![untraced.model().forward_ints(&image())]);
    let (traced, _) = traced_session(1);
    assert_eq!(
        traced.serve(InferRequest::single(image())).unwrap().logits,
        reference,
        "tracing changed the logits"
    );
}
