//! Table VI and Fig. 8 — the CAV edge-computing case study: the full 4-layer
//! CNN under the four schemes of Fig. 8.

use super::{header, RunConfig};
use crate::{PAPER_BATCH_SIZE, PAPER_POLY_DEGREE};
use hesgx_core::pipeline::{total_enclave_cost, HybridInference, HybridMetrics, ProvisionConfig};
use hesgx_core::planner::{EcallBatching, EnclaveOp, Stage};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::par::ParExec;
use hesgx_nn::dataset;
use hesgx_nn::layers::{ActivationKind, PoolKind};
use hesgx_nn::model_zoo::{architecture_table, paper_cnn};
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_nn::train::{train_paper_cnn, TrainConfig, TrainedModel};
use hesgx_obs::Recorder;
use hesgx_tee::cost::CostModel;
use hesgx_tee::enclave::Platform;
use std::time::Instant;

/// Prints Table VI (the CNN architecture of Fig. 7).
pub fn print_model_table() {
    header("TABLE VI / FIG 7: the case-study CNN architecture");
    let mut rng = ChaChaRng::from_seed(0);
    let net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
    println!(
        "{:<16} {:<24} {:<8} {:<16} {:<16}",
        "Input", "Layer", "Stride", "Kernel", "Output"
    );
    for row in architecture_table(&net) {
        println!(
            "{:<16} {:<24} {:<8} {:<16} {:<16}",
            row.input, row.layer, row.stride, row.kernel, row.output
        );
    }
}

/// Trains both model variants (scaled-down in quick mode).
pub fn train_models(cfg: RunConfig) -> (TrainedModel, TrainedModel) {
    let train_cfg = if cfg.quick {
        TrainConfig {
            train_samples: 600,
            test_samples: 100,
            epochs: 2,
            ..Default::default()
        }
    } else {
        TrainConfig::default()
    };
    let sigmoid_cfg = train_cfg.clone();
    let hybrid = train_paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &sigmoid_cfg);
    let square_cfg = TrainConfig {
        learning_rate: 0.01,
        ..train_cfg
    };
    let cryptonets = train_paper_cnn(ActivationKind::Square, PoolKind::ScaledMean, &square_cfg);
    (hybrid, cryptonets)
}

/// One timed run of `plan`: the logits, the metrics, and the effective
/// seconds (wall plus the modeled enclave overhead — the number Fig. 8 plots).
fn timed_run(
    service: &HybridInference,
    plan: &hesgx_core::planner::InferencePlan,
    enc: &EncryptedMap,
) -> (EncryptedMap, HybridMetrics, f64) {
    let start = Instant::now();
    let (logits, metrics) = service.run(plan, enc).unwrap();
    let wall = start.elapsed().as_secs_f64();
    let cost = total_enclave_cost(&metrics);
    let overhead = cost.total_ns().saturating_sub(cost.real_ns) as f64 / 1e9;
    (logits, metrics, wall + overhead)
}

/// Fig. 8 — "Prediction time with/without SGX" over a batch of 10 encrypted
/// images, plus the accuracy-consistency check: every encrypted prediction,
/// hybrid and pure HE, must equal the plaintext quantized reference exactly.
pub fn fig8_end_to_end(cfg: RunConfig) {
    header("FIG 8: end-to-end prediction time with/without SGX (batch of 10 images)");
    println!("training the two model variants on the synthetic digit set...");
    let (hybrid_trained, cryptonets_trained) = train_models(cfg);
    println!(
        "float test accuracy: sigmoid/mean-pool {:.1}%, square/scaled-mean-pool {:.1}%",
        hybrid_trained.test_accuracy * 100.0,
        cryptonets_trained.test_accuracy * 100.0
    );

    let hybrid_model =
        QuantizedCnn::from_network(&hybrid_trained.network, QuantPipeline::Hybrid, 16, 32, 16);
    let cryptonets_model = QuantizedCnn::from_network(
        &cryptonets_trained.network,
        QuantPipeline::CryptoNets,
        8,
        8,
        16,
    );

    // Test batch.
    let batch: Vec<&dataset::Sample> = hybrid_trained
        .test_set
        .iter()
        .take(PAPER_BATCH_SIZE)
        .collect();
    let images: Vec<Vec<i64>> = batch
        .iter()
        .map(|s| dataset::quantize_pixels(&s.image))
        .collect();
    let mut rng = ChaChaRng::from_seed(2021).fork("fig8");

    // ---- Encrypted: the CryptoNets pure-HE baseline, one ciphertext per
    // pixel as in the paper, and in the orbit layout the engine picks. ----
    println!("running Encrypted (pure HE, CryptoNets baseline), per pixel and packed...");
    let engine = CryptoNets::new(cryptonets_model.clone(), PAPER_POLY_DEGREE).unwrap();
    let keys = engine.system().generate_keys(&mut rng);
    let pixel_map = EncryptedMap::encrypt_images(
        engine.system(),
        &images,
        cryptonets_model.in_side,
        Layout::Pixel,
        &keys.public,
        &rng.fork_next("batch"),
        &ParExec::serial(),
    )
    .unwrap();
    let orbit_map = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
    let mut baseline_exact = true;
    let mut baseline = |enc: &EncryptedMap| {
        let start = Instant::now();
        let (logits, ops) = engine.infer(enc, &keys).unwrap();
        let seconds = start.elapsed().as_secs_f64();
        let rows = engine
            .decrypt_logits(&logits, &keys, PAPER_BATCH_SIZE)
            .unwrap();
        baseline_exact &= images.iter().zip(&rows).all(|(img, row)| {
            let want = cryptonets_model.forward_ints(img);
            row.iter().zip(&want).all(|(&got, &v)| got == v as i128)
        });
        let budget = (logits.cells().iter())
            .map(|ct| engine.system().noise_budget(ct, &keys.secret).unwrap())
            .min()
            .unwrap_or(0);
        (seconds, enc.cells().len(), ops, budget)
    };
    let (encrypted_s, pixel_cells, pixel_ops, pixel_budget) = baseline(&pixel_map);
    let (encrypted_packed_s, orbit_cells, orbit_ops, orbit_budget) = baseline(&orbit_map);

    // ---- EncryptSGX: the hybrid framework (batched ECALLs). ----
    println!("running EncryptSGX (hybrid framework)...");
    let obs = Recorder::enabled();
    let (service, ceremony) = HybridInference::provision_with(
        Platform::new(99),
        hybrid_model.clone(),
        ProvisionConfig {
            poly_degree: PAPER_POLY_DEGREE,
            seed: 13,
            recorder: obs.clone(),
            ..ProvisionConfig::default()
        },
    )
    .unwrap();
    // The paper's layout (one ciphertext per pixel) for the groups that
    // reproduce it, and the patch-packed layout this batch is served in.
    let packed_layout = service.ingress_layout(images.len());
    let encrypt = |service: &HybridInference, public: &[_], layout| {
        EncryptedMap::encrypt_images(
            service.system(),
            &images,
            hybrid_model.in_side,
            layout,
            public,
            &rng,
            &ParExec::serial(),
        )
        .unwrap()
    };
    let enc = encrypt(&service, &ceremony.public, Layout::Pixel);
    let (logits, metrics, encrypt_sgx_s) = timed_run(&service, service.plan(), &enc);
    // Accuracy consistency: decrypt with the user's keys, compare to reference.
    let exact = |logits: &EncryptedMap| {
        let rows = logits
            .decrypt_all(
                service.system(),
                &ceremony.user_secret,
                images.len(),
                &ParExec::serial(),
            )
            .unwrap();
        images.iter().zip(&rows).all(|(img, row)| {
            let expect = hybrid_model.forward_ints(img);
            row.iter()
                .zip(&expect)
                .all(|(&got, &want)| got == want as i128)
        })
    };
    let mut hybrid_exact = exact(&logits);

    // ---- EncryptSGX (packed): the same plan from the packed ingress, which
    // also leaves the enclave packed for the FC layer. ----
    println!("running EncryptSGX (packed) (packed ingress and egress, the served path)...");
    let enc_packed = encrypt(&service, &ceremony.public, packed_layout);
    let (logits_packed, metrics_packed, encrypt_sgx_packed_s) =
        timed_run(&service, service.plan(), &enc_packed);
    hybrid_exact &= exact(&logits_packed);

    // ---- EncryptSGX (single): per-pixel ECALLs. ----
    println!("running EncryptSGX (single) (per-pixel ECALLs)...");
    // The same network placed differently: the hand-unfused plan with a
    // per-pixel activation stage, on the same service.
    let mut per_pixel = service.plan().clone();
    let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
    per_pixel.stages.splice(
        1..2,
        [
            Stage::Enclave(vec![sigmoid], EcallBatching::PerPixel),
            Stage::enclave(EnclaveOp::MeanPool),
        ],
    );
    let (_, metrics_single, encrypt_sgx_single_s) = timed_run(&service, &per_pixel, &enc);

    // ---- EncryptFakeSGX: the same pipeline, zero-overhead enclave. ----
    println!("running EncryptFakeSGX (control: same code outside the enclave)...");
    let (fake_service, fake_ceremony) = HybridInference::provision_with(
        Platform::new(100),
        hybrid_model.clone(),
        ProvisionConfig {
            poly_degree: PAPER_POLY_DEGREE,
            seed: 14,
            cost_model: Some(CostModel::fake_sgx()),
            recorder: obs.clone(),
            ..ProvisionConfig::default()
        },
    )
    .unwrap();
    let fake_run = |layout| {
        let enc = encrypt(&fake_service, &fake_ceremony.public, layout);
        let start = Instant::now();
        let _ = fake_service.run(fake_service.plan(), &enc).unwrap();
        start.elapsed().as_secs_f64()
    };
    let encrypt_fake_sgx_s = fake_run(Layout::Pixel);
    let encrypt_fake_sgx_packed_s = fake_run(packed_layout);

    let per_image = |total: f64| total / PAPER_BATCH_SIZE as f64;
    let saving = (encrypted_s - encrypt_sgx_s) / encrypted_s;
    println!();
    println!("scheme                 total (s)   per image (s)");
    println!(
        "Encrypted              {encrypted_s:9.3}   {:13.4}",
        per_image(encrypted_s)
    );
    println!(
        "Encrypted (packed)     {encrypted_packed_s:9.3}   {:13.4}",
        per_image(encrypted_packed_s)
    );
    println!(
        "EncryptSGX (single)    {encrypt_sgx_single_s:9.3}   {:13.4}",
        per_image(encrypt_sgx_single_s)
    );
    println!(
        "EncryptSGX             {encrypt_sgx_s:9.3}   {:13.4}",
        per_image(encrypt_sgx_s)
    );
    println!(
        "EncryptFakeSGX         {encrypt_fake_sgx_s:9.3}   {:13.4}",
        per_image(encrypt_fake_sgx_s)
    );
    println!(
        "EncryptSGX (packed)    {encrypt_sgx_packed_s:9.3}   {:13.4}",
        per_image(encrypt_sgx_packed_s)
    );
    println!(
        "EncryptFakeSGX (packed){encrypt_fake_sgx_packed_s:9.3}   {:13.4}",
        per_image(encrypt_fake_sgx_packed_s)
    );
    println!(
        "paper: Encrypted 450.7 s/img, EncryptSGX(single) +152.5 s/img penalty, EncryptSGX 272.1 s/img, EncryptFakeSGX 240.4 s/img"
    );
    println!(
        "hybrid saving over pure HE: {:.1}% (paper: 39.615%)",
        saving * 100.0
    );
    println!(
        "  packed ({packed_layout:?}, {} ciphertexts in for {}, {} logit ciphertexts out for {}): {:.1}%",
        enc_packed.cells().len(),
        enc.cells().len(),
        logits_packed.cells().len(),
        logits.cells().len(),
        (encrypted_s - encrypt_sgx_packed_s) / encrypted_s * 100.0
    );
    println!(
        "packed hybrid saving over packed pure HE: {:.1}% (paper: 39.615%)",
        (encrypted_packed_s - encrypt_sgx_packed_s) / encrypted_packed_s * 100.0
    );
    println!(
        "  pure HE: per pixel {pixel_cells} ciphertexts in, {} squares, final noise budget {pixel_budget} bits; packed ({:?}) {orbit_cells} in, {} squares, {} rotations, final noise budget {orbit_budget} bits",
        pixel_ops.ct_ct_mul,
        orbit_map.layout(),
        orbit_ops.ct_ct_mul,
        orbit_ops.rotations
    );
    println!(
        "EncryptSGX / EncryptFakeSGX: {:.2}x per-pixel layout, {:.2}x packed (paper: 1.13x)",
        encrypt_sgx_s / encrypt_fake_sgx_s,
        encrypt_sgx_packed_s / encrypt_fake_sgx_packed_s
    );
    println!(
        "encrypted predictions exactly match plaintext quantized reference: hybrid {hybrid_exact}, baseline {baseline_exact} (paper: 'accuracy rates are consistent with the plaintext predictions')"
    );

    if let Some(path) = crate::write_obs_snapshot("fig8", &obs) {
        println!("obs snapshot written to {}", path.display());
    }

    // The deterministic face of Fig. 8: modeled enclave cost terms and HE
    // operation counts only — wall seconds stay out, so CI can diff this
    // artifact across reruns.
    let batched_cost = total_enclave_cost(&metrics);
    let packed_cost = total_enclave_cost(&metrics_packed);
    let single_cost = total_enclave_cost(&metrics_single);
    let cost_json = |c: &hesgx_tee::cost::CostBreakdown| {
        format!(
            "{{\"transition_ns\":{},\"copy_ns\":{},\"paging_ns\":{},\"model_ns\":{}}}",
            c.transition_ns,
            c.copy_ns,
            c.paging_ns,
            c.model_ns()
        )
    };
    let ops_json = |ops: &hesgx_henn::ops::OpCounter| {
        format!(
            "{{\"ct_pt_mul\":{},\"ct_ct_add\":{},\"ct_pt_add\":{},\"ct_ct_mul\":{},\"relin\":{}}}",
            ops.ct_pt_mul, ops.ct_ct_add, ops.ct_pt_add, ops.ct_ct_mul, ops.relin
        )
    };
    let fig8_json = format!(
        "{{\"experiment\":\"fig8\",\"batch_size\":{},\"batched\":{},\"per_pixel\":{},\"ops\":{},\"packed\":{},\"packed_ops\":{},\"predictions_exact\":{}}}",
        PAPER_BATCH_SIZE,
        cost_json(&batched_cost),
        cost_json(&single_cost),
        ops_json(&metrics.ops),
        cost_json(&packed_cost),
        ops_json(&metrics_packed.ops),
        hybrid_exact && baseline_exact
    );
    if let Some(path) = crate::write_bench_file("BENCH_fig8.json", &fig8_json) {
        println!("bench table written to {}", path.display());
    }

    // Hard gates (after the artifacts, so a failure leaves them on disk for
    // debugging): the paper's "accuracy rates are consistent" claim.
    assert!(
        hybrid_exact,
        "a hybrid prediction diverged from the plaintext quantized reference"
    );
    assert!(
        baseline_exact,
        "a pure-HE prediction diverged from the plaintext quantized reference"
    );
}
