//! `trace` — deterministic per-request trace timelines and the noise-budget
//! decision table (not in the paper).
//!
//! Runs a fixed-seed session at worker-pool sizes 1/2/4 with a
//! timeline-enabled [`Recorder`] and checks the three contracts DESIGN.md
//! §13 pins:
//!
//! 1. **Timeline determinism** — the Chrome trace-event JSON and the
//!    Prometheus exposition are byte-identical across pool sizes, because
//!    every timestamp comes from the modeled virtual trace clock and the
//!    ECALL path is selected by the plan, never by thread count.
//! 2. **Noise-decision soundness** — in `Auto` mode the refresh fires *iff*
//!    the enclave-measured pre-refresh budget is below the plan's
//!    `refresh_threshold_bits`. Both outcomes are exercised: the planner
//!    default (10 bits) skips, a raised override (80 bits) refreshes.
//! 3. **Zero-cost-when-off** — logits from the traced run are bit-identical
//!    to an untraced run of the same seed: telemetry probes never touch the
//!    ciphertext path.
//!
//! Artifacts land in `target/obs/`: `trace-<seed>.json` loads directly in
//! Perfetto / `chrome://tracing`, `trace-<seed>.prom` is Prometheus text
//! exposition. CI runs this experiment twice and diffs the outputs.

use super::{chaos_sweep::sweep_model, header, RunConfig};
use hesgx_core::pipeline::NoiseDecision;
use hesgx_core::prelude::*;
use hesgx_obs::Recorder;

/// Seed every session in this experiment uses (also in the artifact names).
pub const TRACE_SEED: u64 = 7;

/// Machine-checkable summary of the trace experiment.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Chrome trace-event JSON identical across pool sizes 1/2/4.
    pub chrome_identical: bool,
    /// Prometheus exposition identical across pool sizes 1/2/4.
    pub prometheus_identical: bool,
    /// Traced logits equal the untraced run's logits (zero-cost-when-off).
    pub logits_match_untraced: bool,
    /// Every decision satisfies `refreshed == (before_bits < threshold)`.
    pub decisions_sound: bool,
    /// Noise decisions from both threshold configs, execution order.
    pub decisions: Vec<NoiseDecision>,
    /// Trace events in the pool-1 timeline.
    pub events: usize,
    /// Where the Perfetto trace landed (unset when the write failed).
    pub trace_path: Option<String>,
    /// Where the Prometheus snapshot landed (unset when the write failed).
    pub prom_path: Option<String>,
}

/// One traced run: returns (logits, noise decisions, chrome JSON,
/// Prometheus text, event count, recorder).
#[allow(clippy::type_complexity)]
fn traced_run(
    threads: usize,
    threshold: Option<u32>,
    model: &hesgx_nn::quantize::QuantizedCnn,
    image: &[i64],
    platform_id: u64,
) -> (
    Vec<Vec<i64>>,
    Vec<NoiseDecision>,
    String,
    String,
    usize,
    Recorder,
) {
    let rec = Recorder::with_timeline();
    let mut policy = ServePolicy::new().noise_refresh(NoiseRefresh::Auto);
    if let Some(bits) = threshold {
        policy = policy.refresh_threshold_bits(bits);
    }
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(threads)
        .seed(TRACE_SEED)
        .policy(policy)
        .recorder(rec.clone())
        .build(Platform::new(platform_id), model.clone())
        .expect("trace experiment provisioning");
    let response = session
        .serve(InferRequest::single(image.to_vec()))
        .expect("fault-free inference");
    let (logits, decisions) = (response.logits, response.metrics.noise);
    let chrome = rec.export_chrome_trace();
    let prom = rec.export_prometheus();
    let events = rec.trace_events().len();
    (logits, decisions, chrome, prom, events, rec)
}

/// Runs the report, prints the noise table, writes `target/obs/trace-7.*`.
pub fn trace(cfg: RunConfig) -> TraceReport {
    header("TRACE: deterministic timelines + noise-budget telemetry (not in the paper)");
    let model = sweep_model(cfg.quick);
    let image: Vec<i64> = (0..model.in_side * model.in_side)
        .map(|p| ((p * 3) % 16) as i64)
        .collect();

    // Reference run with the no-op recorder: tracing must not change bits.
    let untraced = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(1)
        .seed(TRACE_SEED)
        .policy(ServePolicy::new().noise_refresh(NoiseRefresh::Auto))
        .build(Platform::new(703), model.clone())
        .expect("untraced provisioning");
    let untraced_logits = untraced
        .serve(InferRequest::single(image.clone()))
        .expect("untraced inference")
        .logits;

    // Traced runs across pool sizes, planner-default threshold (10 bits —
    // the small model keeps far more budget than that, so Auto skips).
    let mut chrome_outs = Vec::new();
    let mut prom_outs = Vec::new();
    #[allow(clippy::type_complexity)]
    let mut first: Option<(Vec<Vec<i64>>, Vec<NoiseDecision>, usize, Recorder)> = None;
    for threads in [1usize, 2, 4] {
        let (logits, decisions, chrome, prom, events, rec) =
            traced_run(threads, None, &model, &image, 703);
        chrome_outs.push(chrome);
        prom_outs.push(prom);
        if first.is_none() {
            first = Some((logits, decisions, events, rec));
        }
    }
    let chrome_identical = chrome_outs.windows(2).all(|w| w[0] == w[1]);
    let prometheus_identical = prom_outs.windows(2).all(|w| w[0] == w[1]);
    let (logits, skip_decisions, events, rec) = first.expect("at least one pool size ran");
    let logits_match_untraced = logits == untraced_logits;

    // Second config: threshold raised above the live budget, so the same
    // pipeline must take the refresh — and still agree on the logits.
    let (forced_logits, take_decisions, ..) = traced_run(1, Some(80), &model, &image, 704);
    let forced_match = forced_logits == untraced_logits;

    let mut decisions = skip_decisions;
    decisions.extend(take_decisions.iter().copied());
    let decisions_sound = !decisions.is_empty()
        && decisions
            .iter()
            .all(|d| d.refreshed == (d.before_bits < d.threshold_bits));

    println!(
        "input {}×{} | FV n = 256 | pools 1/2/4 | seed {TRACE_SEED} | auto refresh",
        model.in_side, model.in_side
    );
    println!();
    println!("noise-budget decisions (bits measured inside the enclave):");
    println!("layer   threshold   before   after   margin   decision");
    for d in &decisions {
        let after = d
            .after_bits
            .map_or_else(|| "-".to_string(), |b| b.to_string());
        let margin = i64::from(d.before_bits) - i64::from(d.threshold_bits);
        let verdict = if d.refreshed { "REFRESH" } else { "skip" };
        println!(
            "{:>5} {:>11} {:>8} {:>7} {:>8} {:>10}",
            d.layer, d.threshold_bits, d.before_bits, after, margin, verdict
        );
    }
    println!();
    println!("trace events (pool 1): {events}");
    println!("chrome trace byte-identical across pools 1/2/4: {chrome_identical}");
    println!("prometheus text byte-identical across pools 1/2/4: {prometheus_identical}");
    println!(
        "logits bit-identical to untraced run: {}",
        logits_match_untraced && forced_match
    );

    let trace_path = crate::write_obs_file(
        &format!("trace-{TRACE_SEED}.json"),
        &rec.export_chrome_trace(),
    )
    .map(|p| p.display().to_string());
    let prom_path = crate::write_obs_file(
        &format!("trace-{TRACE_SEED}.prom"),
        &rec.export_prometheus(),
    )
    .map(|p| p.display().to_string());
    if let Some(path) = &trace_path {
        println!("perfetto trace written to {path} (open in ui.perfetto.dev)");
    }
    if let Some(path) = &prom_path {
        println!("prometheus snapshot written to {path}");
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
        logits_match_untraced && forced_match,
        "tracing changed the inference result"
    );
    assert!(
        decisions_sound,
        "refresh decision disagrees with the recorded budget/threshold: {decisions:?}"
    );
    assert!(
        decisions.iter().any(|d| !d.refreshed) && decisions.iter().any(|d| d.refreshed),
        "expected both a skipped and a taken refresh across the two thresholds"
    );

    TraceReport {
        chrome_identical,
        prometheus_identical,
        logits_match_untraced: logits_match_untraced && forced_match,
        decisions_sound,
        decisions,
        events,
        trace_path,
        prom_path,
    }
}
