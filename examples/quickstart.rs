//! Quickstart: build a hybrid HE+SGX inference session, attest it, and run
//! one encrypted prediction through the unified `Session` API.
//!
//! ```text
//! cargo run --release -p hesgx-core --example quickstart
//! ```

use hesgx_core::keydist::verify_key_ceremony;
use hesgx_core::prelude::*;
use hesgx_nn::dataset;
use hesgx_nn::layers::PoolKind;
use hesgx_nn::train::{train_paper_cnn, TrainConfig};
use hesgx_tee::attestation::AttestationService;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // 1. Train the paper's 4-layer CNN (conv → sigmoid → mean-pool → FC) on
    //    the synthetic digit set, then quantize it for the hybrid pipeline.
    println!("[1/5] training the case-study CNN...");
    let config = TrainConfig {
        train_samples: 800,
        test_samples: 100,
        epochs: 2,
        ..Default::default()
    };
    let trained = train_paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &config);
    println!(
        "      float test accuracy: {:.1}%",
        trained.test_accuracy * 100.0
    );
    let model = QuantizedCnn::from_network(&trained.network, QuantPipeline::Hybrid, 16, 32, 16);

    // 2. Build the session: the enclave generates the FV keys inside and
    //    binds them into an attestation quote — no trusted third party. The
    //    HE hot paths run on a worker pool, one worker per core.
    println!("[2/5] building the inference session (enclave key ceremony)...");
    let platform = Platform::new(7);
    let mut attestation = AttestationService::new();
    attestation.register_platform(platform.quoting_enclave());
    let session = SessionBuilder::new()
        .params(ParamsPreset::Paper)
        .activation(ActivationKind::Sigmoid)
        .seed(42)
        .build(platform, model.clone())?;
    println!("      HE worker threads: {}", session.threads());

    // 3. The user verifies the quote chain before trusting the keys.
    println!("[3/5] verifying the attestation quote...");
    let expected = *session.service().enclave().enclave().measurement();
    verify_key_ceremony(&attestation, session.ceremony(), &expected)?;
    println!("      quote verified; keys accepted");

    // 4. Encrypt an image, run the hybrid pipeline, decrypt — one call.
    println!("[4/5] running one encrypted prediction...");
    let sample = &trained.test_set[0];
    let pixels = dataset::quantize_pixels(&sample.image);
    let response = session.serve(InferRequest::single(pixels.clone()))?;

    // 5. The plaintext argmax of the decrypted logits is the prediction.
    println!("[5/5] reading the result...");
    let predicted = response.logits[0]
        .iter()
        .enumerate()
        .max_by_key(|(_, &v)| v)
        .map(|(class, _)| class)
        .expect("model has classes");
    let metrics = &response.metrics;
    println!();
    println!("true label:           {}", sample.label);
    println!("encrypted prediction: {predicted}");
    println!(
        "plaintext reference:  {} (must match the encrypted result exactly)",
        model.predict_ints(&pixels)
    );
    println!(
        "pipeline time:        {:?} ({} threads)",
        metrics.total(),
        metrics.threads
    );
    for stage in &metrics.stages {
        println!("  - {:<36} {:?}", stage.name, stage.effective());
    }
    Ok(())
}
