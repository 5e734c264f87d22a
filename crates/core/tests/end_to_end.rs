//! Integration tests spanning all crates: the full paper pipeline at the
//! paper's parameters, exactness against the plaintext reference, the
//! attestation chain, and the side-channel claims.

mod testutil;

use hesgx_core::keydist::verify_key_ceremony;
use hesgx_core::pipeline::{HybridInference, ProvisionConfig};
use hesgx_core::planner::{EcallBatching, EnclaveOp, Stage};
use hesgx_core::request::{InferRequest, Ingress};
use hesgx_core::session::{ParamsPreset, SessionBuilder};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::ops::OpCounter;
use hesgx_henn::par::ParExec;
use hesgx_nn::dataset;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::{counters, Recorder};
use hesgx_tee::attestation::AttestationService;
use hesgx_tee::enclave::Platform;
use testutil::{hybrid_paper_model, provision, small_hybrid_model};

#[test]
fn full_paper_pipeline_matches_reference_for_batch() {
    // The headline correctness claim (paper §VII-B): encrypted hybrid
    // inference produces exactly the plaintext predictions — here verified on
    // the real 28×28 architecture at n = 1024 with a batch of 3 images.
    let model = hybrid_paper_model(1);
    let platform = Platform::new(50);
    let mut attestation = AttestationService::new();
    attestation.register_platform(platform.quoting_enclave());
    let (service, ceremony) = provision(platform, model.clone(), 3);

    // Attestation chain must verify before the user encrypts anything.
    let measurement = *service.enclave().enclave().measurement();
    let keys = verify_key_ceremony(&attestation, &ceremony, &measurement).unwrap();

    let samples = dataset::generate(3, 9);
    let images: Vec<Vec<i64>> = samples
        .iter()
        .map(|s| dataset::quantize_pixels(&s.image))
        .collect();
    let rng = ChaChaRng::from_seed(10);
    let enc = EncryptedMap::encrypt_images(
        service.system(),
        &images,
        28,
        Layout::Pixel,
        &keys,
        &rng,
        &ParExec::serial(),
    )
    .unwrap();
    let (logits, metrics) = service.run(service.plan(), &enc).unwrap();

    for (b, img) in images.iter().enumerate() {
        let expect = model.forward_ints(img);
        for (class, ct) in logits.iter().enumerate() {
            let got = service
                .system()
                .decrypt_slots(ct, &ceremony.user_secret)
                .unwrap()[b];
            assert_eq!(got, expect[class] as i128, "batch {b} class {class}");
        }
    }
    // The paper model's 2×2 window selects SgxPool, fused into the
    // activation's crossing; all three stages ran.
    let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
    assert_eq!(
        service.plan().stages[1],
        Stage::Enclave(vec![sigmoid, EnclaveOp::MeanPool], EcallBatching::Batched)
    );
    assert_eq!(metrics.stages.len(), 3);
    assert_eq!(
        metrics.ops.ct_ct_mul, 0,
        "hybrid pipeline never multiplies ciphertexts"
    );
    assert_eq!(metrics.ops.relin, 0, "hybrid pipeline never relinearizes");
}

#[test]
fn cryptonets_baseline_matches_reference_on_paper_architecture() {
    // The pure-HE baseline on a reduced instance of the paper architecture
    // (12×12 input keeps the square count manageable in a test).
    let model = QuantizedCnn {
        pipeline: QuantPipeline::CryptoNets,
        in_side: 12,
        conv_out: 3,
        kernel: 5,
        window: 2,
        classes: 10,
        conv_weights: (0..75).map(|i| (i % 9) as i64 - 4).collect(),
        conv_bias: vec![3, -2, 7],
        fc_weights: (0..10 * 48).map(|i| (i % 7) as i64 - 3).collect(),
        fc_bias: (0..10).map(|i| i * 11 - 50).collect(),
        weight_scale: 8,
        fc_scale: 8,
        act_scale: 16,
    };
    let engine = CryptoNets::new(model.clone(), 1024).unwrap();
    let mut rng = ChaChaRng::from_seed(20);
    let keys = engine.system().generate_keys(&mut rng);
    let images: Vec<Vec<i64>> = (0..2)
        .map(|b| (0..144).map(|p| ((p * 5 + b) % 16) as i64).collect())
        .collect();
    let enc = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
    let (logits, counter) = engine.infer(&enc, &keys).unwrap();
    let dec = engine.decrypt_logits(&logits, &keys, 2).unwrap();
    for (b, img) in images.iter().enumerate() {
        let expect: Vec<i128> = model.forward_ints(img).iter().map(|&v| v as i128).collect();
        assert_eq!(dec[b], expect, "batch {b}");
    }
    // The baseline pays squares + relinearizations the hybrid avoids.
    assert_eq!(counter.ct_ct_mul as usize, 3 * 8 * 8);
    assert_eq!(counter.relin, counter.ct_ct_mul);
}

#[test]
fn hybrid_and_plaintext_predictions_agree_across_dataset() {
    // Prediction-level consistency over more samples (argmax, not raw logits,
    // to mirror the paper's accuracy claim).
    let model = hybrid_paper_model(2);
    let (service, ceremony) = provision(Platform::new(51), model.clone(), 4);
    let samples = dataset::generate(4, 33);
    let images: Vec<Vec<i64>> = samples
        .iter()
        .map(|s| dataset::quantize_pixels(&s.image))
        .collect();
    let rng = ChaChaRng::from_seed(11);
    let enc = EncryptedMap::encrypt_images(
        service.system(),
        &images,
        28,
        Layout::Pixel,
        &ceremony.public,
        &rng,
        &ParExec::serial(),
    )
    .unwrap();
    let (logits, _) = service.run(service.plan(), &enc).unwrap();
    for (b, img) in images.iter().enumerate() {
        let mut best = (0usize, i128::MIN);
        for (class, ct) in logits.iter().enumerate() {
            let v = service
                .system()
                .decrypt_slots(ct, &ceremony.user_secret)
                .unwrap()[b];
            if v > best.1 {
                best = (class, v);
            }
        }
        assert_eq!(best.0, model.predict_ints(img), "sample {b}");
    }
}

#[test]
fn relu_and_tanh_in_enclave_also_exact() {
    // Paper §VI-C: SGX computes diverse activations exactly. Exactness of
    // the activation is scale-free, so this runs the 8×8 model at n = 256
    // (the paper-scale sigmoid test above covers 28×28 at n = 1024).
    for kind in [ActivationKind::Relu, ActivationKind::Tanh] {
        let model = small_hybrid_model();
        let (service, ceremony) = HybridInference::provision_with(
            Platform::new(52),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed: 5,
                activation: kind,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let image = vec![(0..64).map(|p| (p * 7 % 16) as i64).collect::<Vec<i64>>()];
        let rng = ChaChaRng::from_seed(12);
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &image,
            model.in_side,
            Layout::Pixel,
            &ceremony.public,
            &rng,
            &ParExec::serial(),
        )
        .unwrap();
        let (logits, _) = service.run(service.plan(), &enc).unwrap();
        // Reference with the same activation.
        let conv = model.conv_ints(&image[0]);
        let act: Vec<i64> = conv
            .iter()
            .map(|&v| model.enclave_activation(v, kind))
            .collect();
        let (cs, ps, k) = (model.conv_side(), model.pool_side(), model.window);
        let mut pooled = vec![0i64; model.fc_in()];
        for c in 0..model.conv_out {
            for py in 0..ps {
                for px in 0..ps {
                    let mut sum = 0;
                    for dy in 0..k {
                        for dx in 0..k {
                            sum += act[(c * cs + py * k + dy) * cs + px * k + dx];
                        }
                    }
                    pooled[(c * ps + py) * ps + px] = model.enclave_mean(sum);
                }
            }
        }
        for (class, ct) in logits.iter().enumerate() {
            let mut expect = model.fc_bias[class];
            for (i, &p) in pooled.iter().enumerate() {
                expect += model.fc_weights[class * model.fc_in() + i] * p;
            }
            let got = service
                .system()
                .decrypt_slots(ct, &ceremony.user_secret)
                .unwrap()[0];
            assert_eq!(got, expect as i128, "{kind:?} class {class}");
        }
    }
}

#[test]
fn side_channel_exposure_lower_for_batched_design() {
    // Paper §IV-C/§IV-D: batching ECALLs reduces the observable surface. The
    // claim counts boundary crossings, which follow from the 28×28 geometry,
    // not from the ring degree — so the paper's model runs at n = 256 here.
    let model = hybrid_paper_model(4);
    let image = vec![dataset::quantize_pixels(&dataset::generate(1, 3)[0].image)];
    let mut rng = ChaChaRng::from_seed(13);

    let run = |batching: EcallBatching, seed: u64| {
        let (service, ceremony) = HybridInference::provision_with(
            Platform::new(seed),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &image,
            28,
            Layout::Pixel,
            &ceremony.public,
            &ChaChaRng::from_seed(14),
            &ParExec::serial(),
        )
        .unwrap();
        // The hand-unfused plan, its activation stage crossing as told.
        let mut plan = service.plan().clone();
        let activation = EnclaveOp::Activation(ActivationKind::Sigmoid);
        plan.stages.splice(
            1..2,
            [
                Stage::Enclave(vec![activation], batching),
                Stage::enclave(EnclaveOp::MeanPool),
            ],
        );
        let _ = service.run(&plan, &enc).unwrap();
        service
            .enclave()
            .enclave()
            .with_monitor(|m| (m.ecall_count(), m.exposure_score()))
    };
    let _ = &mut rng;
    let (batched_ecalls, batched_score) = run(EcallBatching::Batched, 60);
    let (single_ecalls, single_score) = run(EcallBatching::PerPixel, 61);
    assert!(
        single_ecalls > 100 * batched_ecalls,
        "per-pixel design crosses the boundary orders of magnitude more: {single_ecalls} vs {batched_ecalls}"
    );
    assert!(single_score > batched_score);
}

#[test]
fn noise_refresh_extends_computation_indefinitely() {
    // Paper §IV-E: the enclave refresh replaces relinearization. Chain many
    // squarings, refreshing in between — impossible under pure HE at these
    // parameters without evaluation keys. (Three squarings of a scalar do
    // not need the paper's n = 1024.)
    let sys = hesgx_henn::crt::CrtPlainSystem::new(256, &[40961]).unwrap();
    let mut rng = ChaChaRng::from_seed(15);
    let keys = sys.generate_keys(&mut rng);
    let platform = Platform::new(70);
    let enclave = hesgx_tee::enclave::EnclaveBuilder::new("refresh")
        .add_code(b"r")
        .build(platform);
    let ie =
        hesgx_core::InferenceEnclave::new(enclave, keys.secret.clone(), keys.public.clone(), 16);
    // 3^2 = 9, 9^2 = 81, 81^2 = 6561, 6561^2 mod 40961 wraps — stop at depth 3.
    let mut ct = sys.encrypt_slots(&[3], &keys.public, &mut rng).unwrap();
    let mut expected = 3i128;
    for depth in 0..3 {
        let sq = sys.square(&ct).unwrap();
        let (fresh, _) = ie
            .apply(
                &[EnclaveOp::Refresh],
                &sys,
                &small_hybrid_model(),
                &EncryptedMap::new(1, 1, 1, vec![sq]),
                EcallBatching::PerPixel,
                &ParExec::serial(),
            )
            .unwrap();
        let fresh = fresh.into_cells().remove(0);
        expected *= expected;
        let budget = sys.noise_budget(&fresh, &keys.secret).unwrap();
        assert!(
            budget > 20,
            "refresh must restore budget at depth {depth}: {budget}"
        );
        assert_eq!(
            sys.decrypt_slots(&fresh, &keys.secret).unwrap()[0],
            expected
        );
        ct = fresh;
    }
}

/// The differential test of the two ingress layouts. The same images are
/// served through `Session::serve` in both `Ingress` modes — which pick the
/// layout by the count rule — and, on the same service, run by hand from an
/// explicit `Pixel` map and an explicit `Patches` map: every row of every
/// path equals `forward_ints`, and the logit ciphertexts of the hand-run
/// paths are bit-identical across HE pool sizes. Batches sit on every edge
/// of the packing: inside one chunk (1, 2, 10), the largest the rule still
/// packs for the 8×8 model at n = 256 (`9·⌈36·49/256⌉ = 63 < 64`) and one
/// beyond it (50, served in `Pixel`), and — forced by hand — one whose 36·64
/// values fill nine chunks exactly and one that spills a tenth.
#[test]
fn both_layouts_serve_identical_logits_at_every_batch_edge() {
    let model = small_hybrid_model();
    for batch in [1usize, 2, 10, 49, 50, 64, 65] {
        let images: Vec<Vec<i64>> = (0..batch)
            .map(|b| (0..64).map(|p| ((p * 5 + b * 11) % 16) as i64).collect())
            .collect();
        let reference: Vec<Vec<i64>> = images.iter().map(|img| model.forward_ints(img)).collect();
        let patches = Layout::Patches { batch, side: 6 };
        let mut bits = None;
        for threads in [1usize, 2, 4] {
            let what = format!("batch {batch}, {threads} threads");
            let session = SessionBuilder::new()
                .params(ParamsPreset::Small)
                .threads(threads)
                .seed(77)
                .build(Platform::new(920), model.clone())
                .unwrap();
            let service = session.service();
            let (sys, fresh) = (
                service.system(),
                service.system().fresh_ciphertext_byte_len(),
            );
            let ruled = service.ingress_layout(batch);
            assert_eq!(
                ruled,
                if batch <= 49 { patches } else { Layout::Pixel },
                "{what}"
            );
            for ingress in [Ingress::FvCiphertext, Ingress::Transciphered] {
                let response = session
                    .serve(InferRequest::batch(images.clone()).ingress(ingress))
                    .unwrap();
                assert_eq!(response.logits, reference, "{what} {ingress:?}");
                if ingress == Ingress::FvCiphertext {
                    let cells = ruled.ingress_cells(8, 256);
                    assert_eq!(response.upload_bytes, (cells * fresh) as u64, "{what}");
                }
            }
            let by_hand = [Layout::Pixel, patches].map(|layout| {
                let enc = EncryptedMap::encrypt_images(
                    sys,
                    &images,
                    8,
                    layout,
                    &session.ceremony().public,
                    &ChaChaRng::from_seed(78),
                    &ParExec::serial(),
                )
                .unwrap();
                let (logits, _) = service.run(service.plan(), &enc).unwrap();
                let rows = EncryptedMap::new(3, 1, 1, logits.clone())
                    .decrypt_all(
                        sys,
                        &session.ceremony().user_secret,
                        batch,
                        &ParExec::serial(),
                    )
                    .unwrap();
                for (row, want) in rows.iter().zip(&reference) {
                    let want: Vec<i128> = want.iter().map(|&v| v.into()).collect();
                    assert_eq!(row, &want, "{what} {layout:?}");
                }
                logits
            });
            assert_eq!(*bits.get_or_insert(by_hand.clone()), by_hand, "{what}");
        }
    }
}

/// The benchmark's `fig8_fv` request — the paper's geometry (28×28 in, five
/// 5×5 maps, 2×2 pooling, ten classes) at n = 1024 with `batchSize = 10` —
/// served packed: 150 ingress ciphertexts (25 kernel offsets × 6 chunks of
/// the 5760 (position, image) pairs) instead of 784, 30 conv-output cells
/// instead of 2880, the fully connected layer unchanged.
#[test]
fn packed_paper_request_pins_its_op_counts() {
    let flat = 5 * 12 * 12;
    let model = QuantizedCnn {
        pipeline: QuantPipeline::Hybrid,
        in_side: 28,
        conv_out: 5,
        kernel: 5,
        window: 2,
        classes: 10,
        conv_weights: (0..5 * 25).map(|i| (i % 7) as i64 - 3).collect(),
        conv_bias: (0..5).map(|i| (i % 5) - 2).collect(),
        fc_weights: (0..10 * flat).map(|i| (i % 5) as i64 - 2).collect(),
        fc_bias: (0..10).map(|i| (i % 9) - 4).collect(),
        weight_scale: 8,
        fc_scale: 8,
        act_scale: 16,
    };
    let rec = Recorder::enabled();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Paper)
        .threads(2)
        .seed(2021)
        .recorder(rec.clone())
        .build(Platform::new(921), model.clone())
        .unwrap();
    let images: Vec<Vec<i64>> = (0..10)
        .map(|b| (0..784).map(|p| ((p * 3 + b * 7) % 16) as i64).collect())
        .collect();
    let response = session.serve(InferRequest::batch(images.clone())).unwrap();
    for (image, row) in images.iter().zip(&response.logits) {
        assert_eq!(row, &model.forward_ints(image));
    }
    assert_eq!(
        response.metrics.ops,
        OpCounter {
            ct_pt_mul: 30 * 25 + 10 * 720,
            ct_ct_add: 30 * 24 + 10 * 719,
            ct_pt_add: 30 + 10,
            ..OpCounter::default()
        }
    );
    assert_eq!(
        (
            response.metrics.ops.ct_pt_mul,
            response.metrics.ops.ct_ct_add
        ),
        (7950, 7910)
    );
    let fresh = session.service().system().fresh_ciphertext_byte_len() as u64;
    assert_eq!(response.upload_bytes, 150 * fresh);
    // 5760 live slots of 6 × 1024, at ingress and into the enclave.
    assert_eq!(rec.gauge_series(counters::SLOT_OCCUPANCY_PPM), [937_500]);
    assert_eq!(
        rec.gauge_series("infer.layer[1].slot_occupancy_ppm"),
        [937_500]
    );
}
