//! Observability integration tests (DESIGN.md §12): the deterministic
//! snapshot contract and the ns-for-ns reconciliation invariant.
//!
//! - **Golden snapshot**: a fixed-seed session produces a byte-identical
//!   `Recorder::snapshot_json` across runs *and* across worker-pool sizes;
//!   the bytes are pinned by `tests/golden/obs_snapshot.json`, one line per
//!   plan shape: the 8×8 model (one logit ciphertext per class, one
//!   crossing) and its wide variant (packed egress, the closing
//!   `ecall_LogitReduce`). Regenerate with
//!   `HESGX_UPDATE_GOLDEN=1 cargo test -p hesgx-core --test obs` after an
//!   intentional change to what the pipeline records.
//! - **Reconciliation**: summing the recorder's `infer.*.ecall` spans
//!   reproduces `total_enclave_cost(&metrics)` exactly — every term, every
//!   nanosecond — because both sides are fed the same `CostBreakdown`; a
//!   transciphered request's `infer.ingress.ecall` enters the fold too.
//! - **One scope per request**: a request is one `session.request` slice,
//!   span and profiler frame, and its span rolls up the same enclave cost.

mod testutil;

use hesgx_core::pipeline::{total_enclave_cost, HybridMetrics};
use hesgx_core::request::{InferRequest, Ingress};
use hesgx_core::session::{ParamsPreset, Session, SessionBuilder};
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_obs::{counters, Profiler, Recorder, SpanCost, TracePhase};
use hesgx_tee::enclave::Platform;
use std::path::Path;

/// Builds a fixed-seed session of the wide model (packed egress: two
/// crossings) with an enabled recorder and runs one inference, returning its
/// metrics too.
fn run_session(threads: usize) -> (Session, Recorder, HybridMetrics) {
    run_model(
        threads,
        testutil::wide_hybrid_model(),
        Ingress::FvCiphertext,
    )
}

/// One inference of `model` on a fixed-seed session; everything except
/// `threads`, the model and the ingress mode is held constant.
fn run_model(
    threads: usize,
    model: QuantizedCnn,
    ingress: Ingress,
) -> (Session, Recorder, HybridMetrics) {
    let rec = Recorder::enabled();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(threads)
        .seed(7)
        .recorder(rec.clone())
        .build(Platform::new(900), model)
        .unwrap();
    let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
    let request = InferRequest::single(image.clone()).ingress(ingress);
    let response = session.serve(request).unwrap();
    assert_eq!(response.logits, vec![session.model().forward_ints(&image)]);
    (session, rec, response.metrics)
}

#[test]
fn snapshot_is_byte_identical_across_pool_sizes_and_matches_golden() {
    let snapshot = |model, threads| {
        let (session, _, _) = run_model(threads, model, Ingress::FvCiphertext);
        session.obs_snapshot_json()
    };
    let snaps: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let narrow = snapshot(testutil::small_hybrid_model(), threads);
            let wide = snapshot(testutil::wide_hybrid_model(), threads);
            format!("{narrow}\n{wide}\n")
        })
        .collect();
    // Only the packed egress books the closing crossing.
    assert_eq!(snaps[0].matches("ecall.ecall_LogitReduce").count(), 1);
    assert_eq!(snaps[0], snaps[1], "1 vs 2 workers");
    assert_eq!(snaps[0], snaps[2], "1 vs 4 workers");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_snapshot.json");
    if std::env::var_os("HESGX_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &snaps[0]).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden snapshot committed; regenerate with HESGX_UPDATE_GOLDEN=1");
    assert_eq!(
        snaps[0], golden,
        "snapshot drifted from tests/golden/obs_snapshot.json; if the change \
         is intentional, regenerate with HESGX_UPDATE_GOLDEN=1"
    );
}

#[test]
fn per_layer_obs_totals_reconcile_with_pipeline_metrics() {
    // Activation + pooling in one crossing, and the closing reduction; a
    // transciphered request crosses once more first, to re-encrypt its upload.
    for (ingress, crossings) in [(Ingress::FvCiphertext, 2), (Ingress::Transciphered, 3)] {
        let (_, rec, metrics) = run_model(2, testutil::wide_hybrid_model(), ingress);
        let total = total_enclave_cost(&metrics);

        // Fold exactly the `.ecall` pipeline spans — the `.he` spans carry
        // wall time only and never enter the enclave's books.
        let ecall_spans: Vec<_> = rec
            .spans_with_prefix("infer.")
            .into_iter()
            .filter(|(name, _)| name.ends_with(".ecall"))
            .collect();
        assert_eq!(ecall_spans.len(), crossings, "{ingress:?}: {ecall_spans:?}");
        let ingress_span = ecall_spans
            .iter()
            .any(|(name, _)| name == "infer.ingress.ecall");
        let transciphered = ingress == Ingress::Transciphered;
        assert_eq!(ingress_span, transciphered, "{ingress:?}: {ecall_spans:?}");
        for (_, stats) in &ecall_spans {
            assert_eq!(stats.entries, 1, "one inference, one entry per stage");
        }
        let folded = ecall_spans.iter().fold(SpanCost::default(), |acc, (_, s)| {
            acc.saturating_add(s.cost)
        });
        assert_eq!(
            folded, total,
            "{ingress:?}: obs per-layer totals must reconcile ns-for-ns with total_enclave_cost"
        );
        // total_ns agrees too (same fields, same saturating arithmetic).
        assert_eq!(folded.total_ns(), total.total_ns());
    }
}

#[test]
fn session_counters_track_serving_and_boundary_traffic() {
    let (session, rec, _) = run_session(1);
    assert_eq!(rec.counter(counters::SERVED_EXACT), 1);
    assert_eq!(rec.counter(counters::SERVED_DEGRADED), 0);
    assert_eq!(rec.counter(counters::ATTESTATION_VERIFIES), 1);
    assert!(
        rec.counter(counters::ECALLS) >= 3,
        "keygen + 2 infer stages"
    );
    assert!(rec.counter(counters::BYTES_MARSHALLED) > 0);
    // The recorder survives further serving.
    let image: Vec<i64> = (0..64).map(|p| ((p * 3) % 16) as i64).collect();
    session.serve(InferRequest::single(image)).unwrap();
    assert_eq!(rec.counter(counters::SERVED_EXACT), 2);
}

/// One boundary crossing per non-linear block, and the closing reduction: a
/// request to the default plan of the paper's model at the paper's
/// parameters enters the enclave twice — four transitions — and three times
/// when its ingress is transciphered.
/// (The recorder-gated noise probes are telemetry with ECALLs of their own;
/// they are counted out.)
#[test]
fn default_paper_request_crosses_the_boundary_twice() {
    for (ingress, want) in [(Ingress::FvCiphertext, 4), (Ingress::Transciphered, 6)] {
        let rec = Recorder::enabled();
        let session = SessionBuilder::new()
            .params(ParamsPreset::Paper)
            .threads(2)
            .seed(8)
            .recorder(rec.clone())
            .build(Platform::new(901), testutil::hybrid_paper_model(2))
            .unwrap();
        let stage_transitions =
            || rec.counter(counters::ECALL_TRANSITIONS) - 2 * rec.counter(counters::NOISE_PROBES);
        let before = stage_transitions();
        let image: Vec<i64> = (0..28 * 28).map(|p| (p % 16) as i64).collect();
        let response = session
            .serve(InferRequest::single(image.clone()).ingress(ingress))
            .unwrap();
        assert_eq!(response.logits, vec![session.model().forward_ints(&image)]);
        assert_eq!(stage_transitions() - before, want, "{ingress:?}");
        // The request came in one cell, its 784 pixels in 1024 coefficients
        // (one image per pixel cell would be 1 of 1024 slots) — and each map
        // of the conv output that crosses into the enclave holds 576.
        let occupancy = rec.gauge_series(counters::SLOT_OCCUPANCY_PPM);
        assert_eq!(occupancy, [765_625], "{ingress:?}");
        let crossing = rec.gauge_series("infer.layer[1].slot_occupancy_ppm");
        assert_eq!(crossing, [562_500], "{ingress:?}");
        // It leaves packed for the ten-class FC layer, its 864 pooled
        // values in one cell (`P = 1024` slots the image), and every slot of
        // the layer's ten cells, one a class, holds a partial sum on the way
        // into the reduction.
        let reduction = rec.gauge_series("infer.layer[3].slot_occupancy_ppm");
        assert_eq!(reduction, [1_000_000], "{ingress:?}");
        let reduce = rec.span("ecall.ecall_LogitReduce").expect("closing stage");
        assert_eq!(reduce.entries, 1, "{ingress:?}");
    }
}

/// A request opens one scope: one balanced slice, one span entry whose
/// modeled terms are the request's enclave rollup, and one profiler frame
/// under the same name, which the drift report joins.
#[test]
fn a_request_is_one_scope_on_every_face() {
    let rec = Recorder::with_timeline();
    let profiler = Profiler::enabled();
    let _installed = profiler.install();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(1)
        .seed(7)
        .recorder(rec.clone())
        .build(Platform::new(902), testutil::wide_hybrid_model())
        .unwrap();
    let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
    let response = session.serve(InferRequest::single(image)).unwrap();

    let events = rec.trace_events();
    let count = |phase| {
        events
            .iter()
            .filter(|e| e.name == "session.request" && e.phase == phase)
            .count()
    };
    assert_eq!((count(TracePhase::Begin), count(TracePhase::End)), (1, 1));

    let span = rec.span("session.request").expect("a served request books");
    assert_eq!(span.entries, 1);
    let total = total_enclave_cost(&response.metrics);
    let modeled = |c: SpanCost| (c.transition_ns, c.copy_ns, c.paging_ns);
    assert_eq!(modeled(span.cost), modeled(total));
    assert!(span.cost.real_ns > 0, "the request's wall time");

    let drift = profiler.drift_report(&rec);
    let joined = drift
        .entries
        .iter()
        .find(|e| e.stage == "session.request")
        .expect("the frame and the span share one name");
    assert_eq!(joined.calls, 1);
    assert_eq!(joined.modeled_ns, span.cost.total_ns());
    assert!(drift.entries.iter().any(|e| e.stage == "session.provision"));
}

/// The wall profiler names the frames a `fig8`-shaped request spends its
/// client and enclave time in — the paper's model at the paper's
/// parameters, a batch of ten — instead of leaving them in a worker's self
/// time: the encryptions (the client's and the enclave's re-encryption),
/// the decryptions, and the two samplers an encryption draws from.
#[test]
fn a_traced_paper_request_names_its_encryptions_and_samplers() {
    let profiler = Profiler::enabled();
    let _installed = profiler.install();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Paper)
        .threads(2)
        .seed(9)
        .recorder(Recorder::enabled())
        .build(Platform::new(903), testutil::hybrid_paper_model(3))
        .unwrap();
    let images: Vec<Vec<i64>> = (0..10)
        .map(|b| (0..28 * 28).map(|p| ((p + b) % 16) as i64).collect())
        .collect();
    let response = session.serve(InferRequest::batch(images.clone())).unwrap();
    for (image, row) in images.iter().zip(&response.logits) {
        assert_eq!(row, &session.model().forward_ints(image));
    }
    let collapsed = profiler.export_collapsed();
    for frame in [
        "bfv.encrypt",
        "bfv.decrypt",
        "bfv.sample.uniform",
        "bfv.sample.error",
    ] {
        let named = collapsed
            .lines()
            .any(|line| line.split([';', ' ']).any(|segment| segment == frame));
        assert!(named, "no {frame} frame in\n{collapsed}");
    }
}
