//! `par_sweep` — the parallel-execution-engine sweep (not in the paper).
//!
//! Runs the hybrid pipeline at several worker-pool sizes and reports the
//! per-stage and total wall-clock alongside the modeled enclave overhead.
//! Two claims are checked and printed honestly:
//!
//! 1. **Determinism** — the encrypted logits are bit-identical for every
//!    pool size (the engine's scheduling-independence contract).
//! 2. **Speedup** — parallel over serial, which is physically bounded by the
//!    machine's core count. On a single-core machine the sweep reports ~1×
//!    and says so, rather than inventing numbers.

use super::{header, RunConfig};
use crate::PAPER_POLY_DEGREE;
use hesgx_core::pipeline::{HybridInference, ProvisionConfig};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::image::EncryptedMap;
use hesgx_henn::par::ParExec;
use hesgx_nn::layers::{ActivationKind, PoolKind};
use hesgx_nn::model_zoo::paper_cnn;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::Recorder;
use hesgx_tee::enclave::Platform;
use std::num::NonZeroUsize;
use std::time::Instant;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct ParPoint {
    /// Worker threads.
    pub threads: usize,
    /// End-to-end wall seconds (best of the repetitions).
    pub wall_s: f64,
    /// Per-stage wall seconds, in pipeline order.
    pub stage_s: Vec<f64>,
    /// Speedup vs. the 1-thread point.
    pub speedup: f64,
}

/// Sweep summary.
#[derive(Debug, Clone)]
pub struct ParSweep {
    /// One entry per pool size.
    pub points: Vec<ParPoint>,
    /// Whether every pool size produced bit-identical encrypted logits.
    pub bit_identical: bool,
    /// Cores the machine actually has (the speedup ceiling).
    pub available_cores: usize,
}

fn sweep_model(quick: bool) -> QuantizedCnn {
    if quick {
        // A reduced instance of the paper architecture: same layer types,
        // 16×16 input so a sweep point takes seconds, not minutes.
        QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 16,
            conv_out: 4,
            kernel: 5,
            window: 2,
            classes: 10,
            conv_weights: (0..4 * 25).map(|i| (i % 9) as i64 - 4).collect(),
            conv_bias: (0..4).map(|i| i * 3 - 5).collect(),
            fc_weights: (0..10 * 4 * 36).map(|i| (i % 7) as i64 - 3).collect(),
            fc_bias: (0..10).map(|i| i * 2 - 9).collect(),
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

/// Runs the sweep and prints the table.
pub fn par_sweep(cfg: RunConfig) -> ParSweep {
    header("PAR SWEEP: work-stealing HE engine, serial vs parallel (not in the paper)");
    let available_cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let model = sweep_model(cfg.quick);
    let poly_degree = if cfg.quick { 512 } else { PAPER_POLY_DEGREE };
    let reps = cfg.reps(5);
    println!(
        "machine: {available_cores} core(s) | FV n = {poly_degree} | input {}×{} | best of {reps} reps per point",
        model.in_side, model.in_side
    );

    let thread_counts = [1usize, 2, 4, 8];
    let mut points: Vec<ParPoint> = Vec::new();
    // Reference logits per repetition index: consecutive inferences on one
    // service advance the enclave's ECALL stream counter, so rep r is only
    // comparable to rep r of another pool size, never to rep r+1.
    let mut reference_logits: Vec<Vec<hesgx_henn::crt::CrtCiphertext>> = Vec::new();
    let mut bit_identical = true;
    let mut stage_names: Vec<String> = Vec::new();

    let obs = Recorder::enabled();
    for &threads in &thread_counts {
        // Fresh, identically-seeded service per pool size: only the worker
        // count varies between sweep points.
        let (service, ceremony) = HybridInference::provision_with(
            Platform::new(7),
            model.clone(),
            ProvisionConfig {
                poly_degree,
                seed: 7,
                threads,
                recorder: obs.clone(),
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let images: Vec<Vec<i64>> = (0..4)
            .map(|b| {
                (0..model.in_side * model.in_side)
                    .map(|p| ((p * 3 + b * 11) % 16) as i64)
                    .collect()
            })
            .collect();
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &images,
            model.in_side,
            &ceremony.public,
            &ChaChaRng::from_seed(70),
            &ParExec::serial(),
        )
        .unwrap();

        let mut best_wall = f64::INFINITY;
        let mut best_stages: Vec<f64> = Vec::new();
        for rep in 0..reps {
            let start = Instant::now();
            let (logits, metrics) = service.run(service.plan(), &enc).unwrap();
            let wall = start.elapsed().as_secs_f64();
            if wall < best_wall {
                best_wall = wall;
                best_stages = metrics
                    .stages
                    .iter()
                    .map(|s| s.wall.as_secs_f64())
                    .collect();
                stage_names = metrics.stages.iter().map(|s| s.name.clone()).collect();
            }
            match reference_logits.get(rep) {
                None => reference_logits.push(logits),
                Some(cts) => bit_identical &= &logits == cts,
            }
        }
        points.push(ParPoint {
            threads,
            wall_s: best_wall,
            stage_s: best_stages,
            speedup: 0.0,
        });
    }

    let serial = points[0].wall_s;
    for p in &mut points {
        p.speedup = serial / p.wall_s;
    }

    println!();
    println!("threads   total (s)   speedup   per-stage (s)");
    for p in &points {
        let stages = p
            .stage_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" / ");
        println!(
            "{:>7}   {:9.3}   {:6.2}x   {stages}",
            p.threads, p.wall_s, p.speedup
        );
    }
    println!("stages: {}", stage_names.join(" / "));
    println!("encrypted logits bit-identical across all pool sizes: {bit_identical}");
    let best = points
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("non-empty sweep");
    println!(
        "best speedup {:.2}x at {} threads; the ceiling on this machine is its {} physical core(s){}",
        best.speedup,
        best.threads,
        available_cores,
        if available_cores == 1 {
            " — parallel ~= serial here by construction; run on a multi-core host to see the scaling"
        } else {
            ""
        }
    );

    if let Some(path) = crate::write_obs_snapshot("par_sweep", &obs) {
        println!("obs snapshot written to {}", path.display());
    }

    ParSweep {
        points,
        bit_identical,
        available_cores,
    }
}
