//! # hesgx-bench
//!
//! The paper-reproduction driver. The `repro` binary regenerates each table
//! and figure of the paper's evaluation end to end: every run asserts its
//! correctness claims (exactness, byte identity, reconciliation) and prints
//! the paper's *shape claims* (who wins, ratios, crossovers) next to the
//! measured numbers — see `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod stats;

use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::{CrtKeys, CrtPlainSystem};
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::Recorder;
use hesgx_tee::cost::CostModel;
use hesgx_tee::enclave::{Enclave, EnclaveBuilder, Platform};
use std::path::PathBuf;
use std::sync::Arc;

/// Polynomial degree used throughout (the paper's n = 1024, §V-A).
pub const PAPER_POLY_DEGREE: usize = 1024;

/// Batch size used throughout (the paper's batchSize = 10, §V-B).
pub const PAPER_BATCH_SIZE: usize = 10;

/// The served model of `profile`, which compares profiled and unprofiled
/// serves of one model: the paper CNN's dimensions in full mode, a
/// scaled-down stand-in in quick mode. Deterministic formula weights — an
/// A/B comparison needs identical models, not trained ones.
pub(crate) fn formula_model(quick: bool) -> QuantizedCnn {
    let (in_side, conv_out, kernel, window, classes) = if quick {
        (12, 2, 3, 2, 3)
    } else {
        (28, 5, 5, 2, 10)
    };
    let out_side = in_side - kernel + 1;
    let flat = conv_out * (out_side / window) * (out_side / window);
    QuantizedCnn {
        pipeline: QuantPipeline::Hybrid,
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

/// A ready-made environment shared by the experiments: one platform, a
/// single-modulus FV system at the paper's degree, and keys. Enclaves are
/// minted per experiment via [`PaperEnv::build_enclave`].
pub struct PaperEnv {
    /// The simulated SGX platform.
    pub platform: Arc<Platform>,
    /// Single-modulus FV system at n = 1024 (t = 65537).
    pub sys: CrtPlainSystem,
    /// Keys for `sys`.
    // hesgx-lint: allow(secret-pub-api, reason = "bench harness plays the user role and legitimately holds the keys")
    pub keys: CrtKeys,
    /// Deterministic randomness for the experiment.
    pub rng: ChaChaRng,
    /// Observability recorder attached to every enclave this environment
    /// mints; the `repro` driver snapshots and resets it per experiment.
    pub obs: Recorder,
}

impl PaperEnv {
    /// Builds the environment (deterministic in `seed`).
    pub fn new(seed: u64) -> Self {
        let platform = Platform::new(seed);
        let sys = CrtPlainSystem::new(PAPER_POLY_DEGREE, &[65537]).expect("valid parameters");
        let mut rng = ChaChaRng::from_seed(seed).fork("paper-env");
        let keys = sys.generate_keys(&mut rng);
        PaperEnv {
            platform,
            sys,
            keys,
            rng,
            obs: Recorder::enabled(),
        }
    }

    /// Mints a fresh enclave on the platform; `fake` selects the zero-overhead
    /// `FakeSGX` control model.
    pub fn build_enclave(&self, name: &str, fake: bool) -> Enclave {
        let mut builder = EnclaveBuilder::new(name)
            .add_code(b"bench-enclave-v1")
            .heap_bytes(512 * 1024 * 1024)
            .seed(7);
        if fake {
            builder = builder.cost_model(CostModel::fake_sgx());
        }
        builder
            .recorder(self.obs.clone())
            .build(self.platform.clone())
    }

    /// Wraps this environment's keys in an [`hesgx_core::InferenceEnclave`].
    pub fn inference_enclave(&self, fake: bool) -> hesgx_core::InferenceEnclave {
        let name = if fake { "bench-fake" } else { "bench-real" };
        hesgx_core::InferenceEnclave::new(
            self.build_enclave(name, fake),
            self.keys.secret.clone(),
            self.keys.public.clone(),
            11,
        )
    }
}

/// Writes `recorder`'s deterministic snapshot to
/// `target/obs/<experiment>.json` and returns the path. A failed write is
/// reported on stdout and returns `None` — observability must never fail an
/// experiment run.
pub fn write_obs_snapshot(experiment: &str, recorder: &Recorder) -> Option<PathBuf> {
    write_obs_file(&format!("{experiment}.json"), &recorder.snapshot_json())
}

/// Writes arbitrary exporter output (Chrome trace JSON, Prometheus text) to
/// `target/obs/<file_name>` and returns the path. Same never-fail contract
/// as [`write_obs_snapshot`].
pub fn write_obs_file(file_name: &str, contents: &str) -> Option<PathBuf> {
    write_artifact(
        std::path::Path::new("target").join("obs"),
        file_name,
        contents,
    )
}

/// Writes a deterministic benchmark table (`BENCH_*.json`) to
/// `target/bench/<file_name>` and returns the path. Same never-fail contract
/// as [`write_obs_snapshot`] — CI archives these and diffs them across
/// reruns, so their contents must be integer-only modeled figures.
pub fn write_bench_file(file_name: &str, contents: &str) -> Option<PathBuf> {
    write_artifact(
        std::path::Path::new("target").join("bench"),
        file_name,
        contents,
    )
}

fn write_artifact(dir: PathBuf, file_name: &str, contents: &str) -> Option<PathBuf> {
    let path = dir.join(file_name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents.as_bytes())) {
        Ok(()) => Some(path),
        Err(e) => {
            println!("could not write {}: {e}", path.display());
            None
        }
    }
}
