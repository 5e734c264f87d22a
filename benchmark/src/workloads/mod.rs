//! The four workloads. Each provisions its engine through the public API,
//! serves one warm-up unit, and then hands back a [`Runner`] whose
//! `request` executes and verifies one timed unit of work. Everything a
//! sample reports is either timed around a public call or read from what
//! that call returned.

mod broker;
mod fig8;
mod purehe;

use hesgx_core::request::Ingress;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::ops::OpCounter;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::Recorder;
use std::time::Instant;

/// HE worker threads of every session and engine (`nproc` of the machine
/// the workloads were sized on).
pub const HE_THREADS: usize = 2;
/// Images per closed-loop request (the paper's Fig. 8 batch).
pub const BATCH: usize = 10;

/// One child span of a request, positioned relative to its start.
pub struct Child {
    pub name: String,
    pub offset_ns: u64,
    pub dur_ns: u64,
    /// Laid out from returned stage metrics instead of timed directly.
    pub derived: bool,
}

/// One timed unit of work: a batch-of-10 request on the closed-loop
/// workloads, one replay of the load trace on `broker_12`.
pub struct Sample {
    pub started: Instant,
    pub wall_ns: u64,
    /// Modeled SGX overhead the API reported for this unit (slowdown,
    /// transitions, copies, paging); 0 where it reports none.
    pub overhead_ns: u64,
    pub requests: u64,
    pub failed: u64,
    pub images: u64,
    pub verified_images: u64,
    pub upload_bytes: u64,
    pub trace_id: Option<String>,
    /// Per-layer values of this unit, by metric name.
    pub layer: Vec<(&'static str, f64)>,
    pub children: Vec<Child>,
}

impl Sample {
    /// A unit in which every request failed; the caller fills in the rest
    /// once the response verified.
    fn failed(started: Instant, wall_ns: u64, requests: u64, images: u64) -> Sample {
        Sample {
            started,
            wall_ns,
            overhead_ns: 0,
            requests,
            failed: requests,
            images,
            verified_images: 0,
            upload_bytes: 0,
            trace_id: None,
            layer: Vec::new(),
            children: Vec::new(),
        }
    }
}

pub trait Runner {
    /// Generates the next inputs from the seeded stream, executes one unit
    /// and checks every output against the plaintext reference.
    fn request(&mut self) -> Sample;
}

/// A provisioned, warmed-up workload.
pub struct Ready {
    pub runner: Box<dyn Runner>,
    /// Wall time of the provisioning call(s) alone.
    pub provision_ns: u64,
    /// The warm-up unit (its wall time is the cold first request).
    pub warmup: Sample,
}

/// Provisions `workload` from `seed` and serves its warm-up.
pub fn setup(workload: &str, seed: u64, recorder: Recorder) -> Ready {
    match workload {
        "fig8_fv" => fig8::setup(Ingress::FvCiphertext, seed, recorder),
        "fig8_tc" => fig8::setup(Ingress::Transciphered, seed, recorder),
        "purehe_12" => purehe::setup(seed),
        "broker_12" => broker::setup(seed, recorder),
        other => unreachable!("workload {other} was validated against spec::WORKLOADS"),
    }
}

/// Whether `workload` accepts a `Recorder` (the pure-HE engine has none).
pub fn takes_recorder(workload: &str) -> bool {
    workload != "purehe_12"
}

/// Deterministic formula weights (as `repro profile` uses): the workloads
/// need a fixed model of the right shape, not a trained one.
fn formula_model(
    pipeline: QuantPipeline,
    in_side: usize,
    conv_out: usize,
    kernel: usize,
    classes: usize,
) -> QuantizedCnn {
    let window = 2;
    let pool_side = (in_side - kernel + 1) / window;
    let flat = conv_out * pool_side * pool_side;
    QuantizedCnn {
        pipeline,
        in_side,
        conv_out,
        kernel,
        window,
        classes,
        conv_weights: (0..conv_out * kernel * kernel)
            .map(|i| (i % 7) as i64 - 3)
            .collect(),
        conv_bias: (0..conv_out).map(|i| (i as i64 % 5) - 2).collect(),
        fc_weights: (0..classes * flat).map(|i| (i % 5) as i64 - 2).collect(),
        fc_bias: (0..classes).map(|i| (i as i64 % 9) - 4).collect(),
        weight_scale: 8,
        fc_scale: 8,
        act_scale: 16,
    }
}

/// The paper CNN's shape: 28x28 in, 5 maps 5x5, 2x2 pool, 10 classes.
fn paper_model() -> QuantizedCnn {
    formula_model(QuantPipeline::Hybrid, 28, 5, 5, 10)
}

/// The reduced shape: 12x12 in, 2 maps 3x3, 2x2 pool, 3 classes.
fn small_model(pipeline: QuantPipeline) -> QuantizedCnn {
    formula_model(pipeline, 12, 2, 3, 3)
}

/// The seeded pixel stream of a workload.
fn pixel_rng(seed: u64) -> ChaChaRng {
    ChaChaRng::from_seed(seed).fork("benchmark-pixels")
}

/// `count` images of 4-bit quantized pixels.
fn random_images(rng: &mut ChaChaRng, count: usize, pixels: usize) -> Vec<Vec<i64>> {
    (0..count)
        .map(|_| (0..pixels).map(|_| rng.next_below(16) as i64).collect())
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn op_counts(ops: &OpCounter) -> [(&'static str, f64); 6] {
    [
        ("henn.ops.ct_pt_mul", ops.ct_pt_mul as f64),
        ("henn.ops.ct_ct_add", ops.ct_ct_add as f64),
        ("henn.ops.ct_pt_add", ops.ct_pt_add as f64),
        ("henn.ops.ct_ct_mul", ops.ct_ct_mul as f64),
        ("henn.ops.relin", ops.relin as f64),
        ("henn.ops.weight_prep", ops.weight_prep as f64),
    ]
}
