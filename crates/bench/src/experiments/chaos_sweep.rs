//! `chaos_sweep` — resilience of the hybrid pipeline under injected faults
//! (not in the paper).
//!
//! Drives the `Session` API through a fixed set of transient-only fault
//! plans — every plan seed crossed with several per-site fault rates — and
//! reports what the recovery layer absorbed: injected faults, retries, and
//! the latency each point paid versus the fault-free baseline. The full
//! machine-readable [`FaultReport`] of every point is written to
//! `target/chaos-report.json` so CI can archive it as an artifact; the
//! latencies are wall time and stay in the printed table, so the artifact
//! is byte-identical across runs.
//!
//! Two claims are printed and asserted:
//!
//! 1. **Exactness under recovery** — every transient-only point must match
//!    the fault-free logits bit for bit (the chaos determinism contract).
//! 2. **Report stability** — each point's `FaultReport` is re-derived on a
//!    second run and must be byte-identical (same plan seed → same report).

use super::{header, RunConfig};
use hesgx_core::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_nn::layers::PoolKind;
use hesgx_nn::model_zoo::paper_cnn;
use hesgx_obs::Recorder;
use std::path::Path;
use std::time::Instant;

/// The fixed plan seeds CI sweeps; chosen once, never derived from time.
pub const PLAN_SEEDS: [u64; 6] = [2, 11, 23, 42, 77, 101];
/// Per-site injection probabilities swept in quick mode (full mode keeps the
/// middle rate only — the paper-sized model makes each point expensive).
const RATES: [f64; 3] = [0.1, 0.25, 0.5];
/// Per-site injection cap (keeps every run inside the retry budget).
const CAP: u64 = 1;

/// One sweep point: a session run under one fault plan.
struct ChaosPoint {
    /// The plan seed.
    seed: u64,
    /// Per-site injection probability of the plan.
    rate: f64,
    /// Faults injected across all sites.
    injected: u64,
    /// Retries the recovery layer spent.
    retries: u64,
    /// End-to-end inference wall milliseconds under this plan.
    wall_ms: f64,
    /// Whether logits matched the fault-free baseline bit for bit.
    exact: bool,
    /// Whether a re-run of the same plan reproduced the report byte for byte.
    report_stable: bool,
    /// The machine-readable fault report.
    report_json: String,
}

pub(crate) fn sweep_model(quick: bool) -> QuantizedCnn {
    if quick {
        // Reduced instance of the paper architecture: same layer types,
        // 8×8 input so a sweep point takes well under a second.
        QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 3,
            conv_weights: (0..2 * 9).map(|i| (i % 5) as i64 - 2).collect(),
            conv_bias: vec![1, -2],
            fc_weights: (0..3 * 2 * 9).map(|i| (i % 7) as i64 - 3).collect(),
            fc_bias: vec![4, -1, 2],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        }
    } else {
        let mut rng = ChaChaRng::from_seed(7);
        let net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
        QuantizedCnn::from_network(&net, QuantPipeline::Hybrid, 16, 32, 16)
    }
}

/// The FV parameters a sweep model is served at: the smallest preset whose
/// polynomial holds one of its images, so its convolution reads one
/// coefficient-encoded ciphertext an image — n = 256 for the quick 8×8
/// model, the paper's n = 1024 for its 28×28 CNN (at n = 256 that one would
/// fall back to 784 per-pixel ciphertexts a request). Returns the preset and
/// its degree.
pub(crate) fn sweep_params(model: &QuantizedCnn) -> (ParamsPreset, usize) {
    if model.in_side * model.in_side <= 256 {
        (ParamsPreset::Small, 256)
    } else {
        (ParamsPreset::Paper, 1024)
    }
}

fn build_session(model: &QuantizedCnn, plan: Option<FaultPlan>, obs: &Recorder) -> Session {
    let mut builder = SessionBuilder::new()
        .params(sweep_params(model).0)
        .threads(2)
        .seed(7)
        .recorder(obs.clone());
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    builder
        .build(Platform::new(700), model.clone())
        .expect("chaos sweep provisioning")
}

fn run_point(
    model: &QuantizedCnn,
    image: &[i64],
    seed: u64,
    rate: f64,
    obs: &Recorder,
) -> (Vec<i64>, FaultReport, f64) {
    let session = build_session(model, Some(FaultPlan::transient_only(seed, rate, CAP)), obs);
    let start = Instant::now();
    let logits = session
        .serve(InferRequest::single(image.to_vec()))
        .expect("transient-only run recovers")
        .logits
        .remove(0);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = session
        .fault_report()
        .expect("chaos session carries a report");
    (logits, report, wall_ms)
}

/// Runs the sweep, prints the table, writes `target/chaos-report.json`, and
/// asserts both claims.
pub fn chaos_sweep(cfg: RunConfig) {
    header("CHAOS SWEEP: fault injection + recovery in the hybrid pipeline (not in the paper)");
    let model = sweep_model(cfg.quick);
    let rates: &[f64] = if cfg.quick { &RATES } else { &RATES[1..2] };
    println!(
        "input {}×{} | FV n = {} | rates {rates:?} | cap {CAP}/site | seeds {PLAN_SEEDS:?}",
        model.in_side,
        model.in_side,
        sweep_params(&model).1
    );

    let image: Vec<i64> = (0..model.in_side * model.in_side)
        .map(|p| ((p * 3) % 16) as i64)
        .collect();
    let obs = Recorder::enabled();
    let baseline_session = build_session(&model, None, &obs);
    let start = Instant::now();
    let baseline = baseline_session
        .serve(InferRequest::single(image.clone()))
        .expect("fault-free baseline")
        .logits
        .remove(0);
    let baseline_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut points = Vec::with_capacity(PLAN_SEEDS.len() * rates.len());
    for &rate in rates {
        for &seed in &PLAN_SEEDS {
            let (logits, report, wall_ms) = run_point(&model, &image, seed, rate, &obs);
            let (_, repeat, _) = run_point(&model, &image, seed, rate, &obs);
            let report_json = report.to_json();
            points.push(ChaosPoint {
                seed,
                rate,
                injected: report.injected_total(),
                retries: report.retries(),
                wall_ms,
                exact: logits == baseline,
                report_stable: report_json == repeat.to_json(),
                report_json,
            });
        }
    }

    let all_exact = points.iter().all(|p| p.exact);
    let all_stable = points.iter().all(|p| p.report_stable);

    println!();
    println!("fault-free baseline latency: {baseline_ms:.1} ms");
    println!("rate   seed   injected   retries   latency (ms)   vs base   exact   stable");
    for p in &points {
        println!(
            "{:<4}   {:>4}   {:>8}   {:>7}   {:>12.1}   {:>6.2}x   {:>5}   {:>6}",
            p.rate,
            p.seed,
            p.injected,
            p.retries,
            p.wall_ms,
            p.wall_ms / baseline_ms.max(1e-9),
            p.exact,
            p.report_stable
        );
    }
    println!("all points bit-identical to the fault-free baseline: {all_exact}");
    println!("all fault reports byte-stable across re-runs: {all_stable}");

    // Machine-readable artifact for CI: each point's full FaultReport, no
    // wall time.
    let body = points
        .iter()
        .map(|p| {
            format!(
                "{{\"seed\":{},\"rate\":{},\"exact\":{},\"report_stable\":{},\"report\":{}}}",
                p.seed, p.rate, p.exact, p.report_stable, p.report_json
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"cap\":{CAP},\"all_exact\":{all_exact},\"all_stable\":{all_stable},\"points\":[{body}]}}"
    );
    let path = Path::new("target").join("chaos-report.json");
    match std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, json.as_bytes())) {
        Ok(()) => println!("fault reports written to {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }

    if let Some(path) = crate::write_obs_snapshot("chaos_sweep", &obs) {
        println!("obs snapshot written to {}", path.display());
    }

    // Hard gates (after the artifacts, so a failure leaves them on disk for
    // debugging): the chaos determinism contract.
    assert!(all_exact, "a transient-only fault plan changed the logits");
    assert!(
        all_stable,
        "a fault plan's report differed between two runs of the same seed"
    );
}
