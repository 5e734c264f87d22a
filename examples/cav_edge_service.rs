//! The paper's §VII case study: a connected-and-autonomous-vehicle (CAV)
//! edge server providing privacy-preserving digit recognition to nearby smart
//! devices.
//!
//! A batch of 10 users each submit one encrypted image (the SIMD slots carry
//! the batch, paper §V-B); the CAV runs the hybrid pipeline through the
//! `Session` API and returns each passenger their logits; the run compares
//! hybrid against the pure-HE baseline on the same batch — the Fig. 8
//! experiment at example scale.
//!
//! ```text
//! cargo run --release -p hesgx-core --example cav_edge_service
//! ```

use hesgx_core::pipeline::total_enclave_cost;
use hesgx_core::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_nn::dataset;
use hesgx_nn::layers::PoolKind;
use hesgx_nn::train::{train_paper_cnn, TrainConfig};
use hesgx_obs::{counters, Recorder};
use std::time::Instant;

const BATCH: usize = 10;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    println!("CAV edge service: privacy-preserving inference for {BATCH} vehicle passengers");

    println!("\n== training both model variants ==");
    let cfg = TrainConfig {
        train_samples: 800,
        test_samples: 50,
        epochs: 2,
        ..Default::default()
    };
    let sigmoid_net = train_paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &cfg);
    let square_cfg = TrainConfig {
        learning_rate: 0.01,
        ..cfg
    };
    let square_net = train_paper_cnn(ActivationKind::Square, PoolKind::ScaledMean, &square_cfg);
    println!(
        "sigmoid model {:.1}% | square (HE-only) model {:.1}%",
        sigmoid_net.test_accuracy * 100.0,
        square_net.test_accuracy * 100.0
    );

    let hybrid_model =
        QuantizedCnn::from_network(&sigmoid_net.network, QuantPipeline::Hybrid, 16, 32, 16);
    let baseline_model =
        QuantizedCnn::from_network(&square_net.network, QuantPipeline::CryptoNets, 8, 8, 16);

    // Ten passengers, one image each.
    let samples: Vec<_> = sigmoid_net.test_set.iter().take(BATCH).collect();
    let images: Vec<Vec<i64>> = samples
        .iter()
        .map(|s| dataset::quantize_pixels(&s.image))
        .collect();
    let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();

    println!("\n== hybrid framework (EncryptSGX) ==");
    let session = SessionBuilder::new()
        .params(ParamsPreset::Paper)
        .activation(ActivationKind::Sigmoid)
        .seed(5)
        .recorder(Recorder::enabled())
        .build(Platform::new(77), hybrid_model.clone())?;
    println!("HE worker threads: {}", session.threads());
    let start = Instant::now();
    let response = session.serve(InferRequest::batch(images.clone()))?;
    let hybrid_wall = start.elapsed();
    let all_logits = &response.logits;
    let enclave_overhead = {
        let c = total_enclave_cost(&response.metrics);
        std::time::Duration::from_nanos(c.total_ns().saturating_sub(c.real_ns))
    };

    // Each passenger reads their own logit row.
    let hybrid_preds: Vec<usize> = all_logits
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(class, _)| class)
                .expect("model has classes")
        })
        .collect();
    let hybrid_total = hybrid_wall + enclave_overhead;
    println!(
        "pipeline: {hybrid_wall:?} wall + {enclave_overhead:?} modeled SGX overhead = {hybrid_total:?} for {BATCH} images"
    );
    // The recorder is the one ledger of what the host observes; the noise
    // probes an enabled recorder adds are its own telemetry, not the
    // pipeline's crossings.
    let recorder = session.recorder();
    let probes = recorder
        .span("ecall.ecall_NoiseProbe")
        .map_or(0, |span| span.entries);
    println!(
        "enclave side-channel exposure: {} ECALLs, {} page faults",
        recorder.counter(counters::ECALLS) - probes,
        recorder.counter(counters::EPC_PAGE_FAULTS)
    );

    println!("\n== pure-HE baseline (Encrypted / CryptoNets) ==");
    let mut rng = ChaChaRng::from_seed(4242);
    let engine = CryptoNets::new(baseline_model.clone(), 1024)?;
    let keys = engine.system().generate_keys(&mut rng);
    let enc = engine.encrypt_batch(&images, &keys, &mut rng)?;
    let start = Instant::now();
    let (logits, counter) = engine.infer(&enc, &keys)?;
    let baseline_wall = start.elapsed();
    let baseline_preds = engine.decrypt_predictions(&logits, &keys, BATCH)?;
    println!(
        "pipeline: {baseline_wall:?} for {BATCH} images ({} C×P, {} C×C multiplications, {} relinearizations)",
        counter.ct_pt_mul, counter.ct_ct_mul, counter.relin
    );

    println!("\n== results ==");
    println!("passenger  label  hybrid  baseline");
    let mut hybrid_hits = 0;
    let mut baseline_hits = 0;
    for b in 0..BATCH {
        println!(
            "{b:9}  {:5}  {:6}  {:8}",
            labels[b], hybrid_preds[b], baseline_preds[b]
        );
        hybrid_hits += (hybrid_preds[b] == labels[b]) as usize;
        baseline_hits += (baseline_preds[b] == labels[b]) as usize;
    }
    println!(
        "accuracy on this batch: hybrid {hybrid_hits}/{BATCH}, baseline {baseline_hits}/{BATCH}"
    );
    let saving = 1.0 - hybrid_total.as_secs_f64() / baseline_wall.as_secs_f64();
    println!(
        "hybrid saves {:.1}% of the pure-HE inference time (paper: 39.615%)",
        saving * 100.0
    );
    Ok(())
}
