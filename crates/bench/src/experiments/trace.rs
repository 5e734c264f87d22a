//! `trace` — deterministic per-request trace timelines and the per-crossing
//! noise-budget table (not in the paper).
//!
//! Runs a fixed-seed session at worker-pool sizes 1/2/4 with a
//! timeline-enabled [`Recorder`] and checks the three contracts DESIGN.md
//! §13 pins:
//!
//! 1. **Timeline determinism** — the Chrome trace-event JSON and the
//!    Prometheus exposition are byte-identical across pool sizes, because
//!    every timestamp comes from the modeled virtual trace clock and the
//!    ECALL path is selected by the plan, never by thread count.
//! 2. **Every crossing refreshes** — the enclave re-encrypts what it
//!    decrypted, so each crossing leaves with at least the budget of a fresh
//!    encryption in the encoding it emits, and — where it reads that
//!    encoding too — with at least the budget it came in with:
//!    `noise.budget.layer[i].post ≥ noise.budget.layer[i].pre`, both
//!    measured inside the enclave (only the bit-counts leave it). Budgets of
//!    two encodings are not comparable: the invariant noise carries a
//!    `(q mod t)·m` term, so a slot-encoded message (coefficients across
//!    `[−t/2, t/2]`) reads fewer bits fresh than a coefficient-encoded
//!    image of small pixels after a convolution.
//! 3. **Zero-cost-when-off** — logits from the traced run are bit-identical
//!    to an untraced run of the same seed: telemetry probes never touch the
//!    ciphertext path.
//!
//! `--quick` serves an 8×8 model at n = 256: the request enters
//! coefficient-encoded and leaves per pixel (three classes are no
//! ciphertext's worth of FC layer). The full mode serves the paper's model
//! at `ParamsPreset::Paper` (n = 1024), where it also leaves packed for the
//! FC layer and the closing reduction crosses.
//!
//! Artifacts land in `target/obs/`: `trace-<seed>.json` loads directly in
//! Perfetto / `chrome://tracing`, `trace-<seed>.prom` is Prometheus text
//! exposition. CI runs this experiment twice and diffs the outputs.

use super::{chaos_sweep::sweep_model, header, RunConfig};
use hesgx_core::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_obs::Recorder;

/// Seed every session in this experiment uses (also in the artifact names).
pub const TRACE_SEED: u64 = 7;

/// The noise budget (bits) of one boundary crossing, either side of it.
#[derive(Debug)]
struct CrossingBudget {
    /// Pipeline layer index of the enclave stage.
    layer: usize,
    /// Minimum budget of the cells that crossed in.
    pre_bits: u64,
    /// Minimum budget of the cells the enclave re-encrypted.
    post_bits: u64,
    /// Budget of a fresh encryption in the encoding the crossing emits.
    fresh_bits: u64,
    /// Whether the crossing reads the encoding it emits (`pre` and `post`
    /// are then comparable).
    same_encoding: bool,
}

/// One traced run: returns (logits, crossing budgets, chrome JSON,
/// Prometheus text, event count).
fn traced_run(
    threads: usize,
    preset: ParamsPreset,
    model: &hesgx_nn::quantize::QuantizedCnn,
    image: &[i64],
) -> (Vec<Vec<i64>>, Vec<CrossingBudget>, String, String, usize) {
    let rec = Recorder::with_timeline();
    let session = SessionBuilder::new()
        .params(preset)
        .threads(threads)
        .seed(TRACE_SEED)
        .recorder(rec.clone())
        .build(Platform::new(703), model.clone())
        .expect("trace experiment provisioning");
    let logits = session
        .serve(InferRequest::single(image.to_vec()))
        .expect("fault-free inference")
        .logits;
    let chrome = rec.export_chrome_trace();
    let prom = rec.export_prometheus();
    let events = rec.trace_events().len();
    let gauge = |layer, side| rec.gauge_series(&format!("noise.budget.layer[{layer}].{side}"));
    let service = session.service();
    let (sys, plan, slots) = (
        service.system(),
        service.plan(),
        service.system().slot_count(),
    );
    // The baseline: a fresh encryption of random values in `encoding`,
    // under the user's copy of the secret key — in evaluation form, as the
    // enclave re-encrypts — and measured with it.
    let mut rng = ChaChaRng::from_seed(TRACE_SEED).fork("fresh-baseline");
    let user = &session.ceremony().user_secret;
    let mut fresh = |encoding| {
        let values: Vec<i64> = (0..slots).map(|_| rng.next_below(1 << 62) as i64).collect();
        let ct = sys.encrypt(&values, encoding, user, &mut rng);
        let bits = ct.and_then(|ct| sys.noise_budget(&ct, user));
        u64::from(bits.expect("fresh baseline"))
    };
    // What each crossing reads and emits: an HE layer keeps its input's
    // encoding, a crossing emits the layout the plan's egress rule names.
    let mut layout = service.ingress_layout(1);
    let mut budgets = Vec::new();
    for (layer, stage) in plan.stages.iter().enumerate() {
        let Stage::Enclave(..) = stage else { continue };
        let emitted = plan.egress_layout(layer, service.model(), layout, slots);
        if let (&[pre_bits], &[post_bits]) = (&gauge(layer, "pre")[..], &gauge(layer, "post")[..]) {
            budgets.push(CrossingBudget {
                layer,
                pre_bits,
                post_bits,
                fresh_bits: fresh(emitted.encoding()),
                same_encoding: layout.encoding() == emitted.encoding(),
            });
        }
        layout = emitted;
    }
    (logits, budgets, chrome, prom, events)
}

/// Runs the report, prints the budget table, writes `target/obs/trace-7.*`.
pub fn trace(cfg: RunConfig) {
    header("TRACE: deterministic timelines + noise-budget telemetry (not in the paper)");
    let model = sweep_model(cfg.quick);
    let preset = match cfg.quick {
        true => ParamsPreset::Small,
        false => ParamsPreset::Paper,
    };
    let image: Vec<i64> = (0..model.in_side * model.in_side)
        .map(|p| ((p * 3) % 16) as i64)
        .collect();

    // Reference run with the no-op recorder: tracing must not change bits.
    let untraced = SessionBuilder::new()
        .params(preset)
        .threads(1)
        .seed(TRACE_SEED)
        .build(Platform::new(703), model.clone())
        .expect("untraced provisioning");
    let untraced_logits = untraced
        .serve(InferRequest::single(image.clone()))
        .expect("untraced inference")
        .logits;

    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&threads| traced_run(threads, preset, &model, &image))
        .collect();
    let chrome_identical = runs.windows(2).all(|w| w[0].2 == w[1].2);
    let prometheus_identical = runs.windows(2).all(|w| w[0].3 == w[1].3);
    let (logits, budgets, chrome, prom, events) = runs.into_iter().next().expect("pool 1 ran");
    let logits_match_untraced = logits == untraced_logits;
    let crossings_refresh = !budgets.is_empty()
        && budgets.iter().all(|b| {
            b.post_bits >= b.fresh_bits && (!b.same_encoding || b.post_bits >= b.pre_bits)
        });

    let n = untraced.service().system().slot_count();
    println!(
        "input {}×{} | FV n = {n} | pools 1/2/4 | seed {TRACE_SEED}",
        model.in_side, model.in_side
    );
    println!();
    println!("noise budget per crossing (bits measured inside the enclave;");
    println!("fresh: a fresh encryption in the encoding the crossing emits):");
    println!("layer   pre   post  fresh  same encoding");
    for b in &budgets {
        println!(
            "{:>5} {:>5} {:>6} {:>6}  {}",
            b.layer, b.pre_bits, b.post_bits, b.fresh_bits, b.same_encoding
        );
    }
    println!();
    println!("trace events (pool 1): {events}");
    println!("chrome trace byte-identical across pools 1/2/4: {chrome_identical}");
    println!("prometheus text byte-identical across pools 1/2/4: {prometheus_identical}");
    println!("logits bit-identical to untraced run: {logits_match_untraced}");

    if let Some(path) = crate::write_obs_file(&format!("trace-{TRACE_SEED}.json"), &chrome) {
        let path = path.display();
        println!("perfetto trace written to {path} (open in ui.perfetto.dev)");
    }
    if let Some(path) = crate::write_obs_file(&format!("trace-{TRACE_SEED}.prom"), &prom) {
        println!("prometheus snapshot written to {}", path.display());
    }

    // CI gates on this experiment: a broken contract must fail the run.
    assert!(
        chrome_identical,
        "chrome trace diverged across pool sizes 1/2/4"
    );
    assert!(
        prometheus_identical,
        "prometheus exposition diverged across pool sizes 1/2/4"
    );
    assert!(
        logits_match_untraced,
        "tracing changed the inference result"
    );
    assert!(
        crossings_refresh,
        "a crossing left with less budget than a fresh encryption, or than it came in with \
         in the same encoding: {budgets:?}"
    );
}
