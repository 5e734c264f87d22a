//! Shared scaffolding for the core integration tests: model construction,
//! service provisioning, and wire-level keygen setup. Each test binary
//! compiles its own copy and uses its own subset.
#![allow(dead_code)]

use hesgx_core::keydist::KeyCeremonyPublic;
use hesgx_core::pipeline::{HybridInference, ProvisionConfig};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::{CrtKeys, CrtPlainSystem};
use hesgx_nn::layers::{ActivationKind, PoolKind};
use hesgx_nn::model_zoo::paper_cnn;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_tee::enclave::Platform;
use std::sync::Arc;

/// The 8×8 two-channel model used across the workspace's fast tests: small
/// enough for degree-256 parameters, big enough to exercise every stage.
pub fn small_hybrid_model() -> QuantizedCnn {
    QuantizedCnn {
        pipeline: QuantPipeline::Hybrid,
        in_side: 8,
        conv_out: 2,
        kernel: 3,
        window: 2,
        classes: 3,
        conv_weights: (0..18).map(|i| (i % 7) as i64 - 3).collect(),
        conv_bias: vec![5, -9],
        fc_weights: (0..3 * 18).map(|i| (i % 5) as i64 - 2).collect(),
        fc_bias: vec![10, -5, 0],
        weight_scale: 8,
        fc_scale: 8,
        act_scale: 16,
    }
}

/// [`small_hybrid_model`] with four feature maps and eight classes: its FC
/// layer (8 × 36 values an image) is wider than a degree-256 ciphertext and
/// crosses the enclave boundary in fewer ciphertexts packed, so batches leave
/// the enclave packed for it (`Layout::for_fc`: up to 128 images at n = 256,
/// every batch its ingress packs).
pub fn wide_hybrid_model() -> QuantizedCnn {
    QuantizedCnn {
        conv_out: 4,
        classes: 8,
        conv_weights: (0..36).map(|i| (i % 7) as i64 - 3).collect(),
        conv_bias: vec![5, -9, 3, -1],
        fc_weights: (0..8 * 36).map(|i| (i % 5) as i64 - 2).collect(),
        fc_bias: (0..8).map(|i| i % 9 - 4).collect(),
        ..small_hybrid_model()
    }
}

/// A small untrained paper-architecture (28×28 MNIST-shaped) model, weights
/// random but fixed by `seed` — exactness tests don't need training.
pub fn hybrid_paper_model(seed: u64) -> QuantizedCnn {
    let mut rng = ChaChaRng::from_seed(seed);
    let net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
    QuantizedCnn::from_network(&net, QuantPipeline::Hybrid, 16, 32, 16)
}

/// Provisions a hybrid service at the paper's polynomial degree (1024).
pub fn provision(
    platform: Arc<Platform>,
    model: QuantizedCnn,
    seed: u64,
) -> (HybridInference, KeyCeremonyPublic) {
    HybridInference::provision_with(
        platform,
        model,
        ProvisionConfig {
            poly_degree: 1024,
            seed,
            ..ProvisionConfig::default()
        },
    )
    .unwrap()
}

/// Wire-protocol setup: a single-modulus CRT system plus freshly generated
/// keys and the RNG that produced them (for subsequent encryptions).
pub fn wire_system(
    poly_degree: usize,
    modulus: u64,
    seed: u64,
) -> (CrtPlainSystem, CrtKeys, ChaChaRng) {
    let sys = CrtPlainSystem::new(poly_degree, &[modulus]).unwrap();
    let mut rng = ChaChaRng::from_seed(seed);
    let keys = sys.generate_keys(&mut rng);
    (sys, keys, rng)
}
