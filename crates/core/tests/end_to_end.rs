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
use hesgx_henn::crt::Encoding;
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
use testutil::{hybrid_paper_model, provision, small_hybrid_model, wide_hybrid_model};

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

    let rows = logits
        .decrypt_all(
            service.system(),
            &ceremony.user_secret,
            3,
            &ParExec::serial(),
        )
        .unwrap();
    for (b, img) in images.iter().enumerate() {
        let expect: Vec<i128> = model.forward_ints(img).iter().map(|&v| v.into()).collect();
        assert_eq!(rows[b], expect, "batch {b}");
    }
    // The pooling rides the activation's crossing (SgxPool, fused); a
    // per-pixel map leaves one logit ciphertext per class, so the plan's
    // closing reduction has nothing to do: three stages ran.
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
    // One ciphertext per pixel, as in the paper, and the orbit layout the
    // engine picks: 25 offsets × 4 window members for both images.
    let pixel = EncryptedMap::encrypt_images(
        engine.system(),
        &images,
        12,
        Layout::Pixel,
        &keys.public,
        &rng.fork_next("batch"),
        &ParExec::serial(),
    )
    .unwrap();
    let orbit = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
    assert_eq!(orbit.cells().len(), 100);
    // The baseline pays squares + relinearizations the hybrid avoids: one
    // a conv output pixel, or one a (channel, window member) plane; the
    // orbit FC rotates each of the 10 logits over 16 positions.
    for (enc, squares, rotations) in [(pixel, 3 * 8 * 8, 0), (orbit, 3 * 4, 10 * 4)] {
        let (logits, counter) = engine.infer(&enc, &keys).unwrap();
        let dec = engine.decrypt_logits(&logits, &keys, 2).unwrap();
        for (b, img) in images.iter().enumerate() {
            let expect: Vec<i128> = model.forward_ints(img).iter().map(|&v| v as i128).collect();
            assert_eq!(dec[b], expect, "batch {b}, {:?}", enc.layout());
        }
        assert_eq!((counter.ct_ct_mul, counter.rotations), (squares, rotations));
        assert_eq!(counter.relin, counter.ct_ct_mul);
    }
}

/// The orbit plan at the paper's geometry (28×28 input, 5×5 kernel, 2×2
/// pool, ten classes): 144 pooled positions make an orbit of 256, two
/// images a matrix row and four a group, so five images take two groups
/// (200 ingress cells, not 784) and every logit is summed over 8 rotations.
#[test]
fn cryptonets_orbit_plan_matches_reference_at_paper_scale() {
    let model = QuantizedCnn {
        pipeline: QuantPipeline::CryptoNets,
        in_side: 28,
        conv_out: 2,
        kernel: 5,
        window: 2,
        classes: 10,
        conv_weights: (0..50).map(|i| (i % 9) as i64 - 4).collect(),
        conv_bias: vec![3, -2],
        fc_weights: (0..10 * 288).map(|i| (i % 7) as i64 - 3).collect(),
        fc_bias: (0..10).map(|i| i * 11 - 50).collect(),
        weight_scale: 8,
        fc_scale: 8,
        act_scale: 16,
    };
    let engine = CryptoNets::new(model.clone(), 1024).unwrap();
    let mut rng = ChaChaRng::from_seed(21);
    let keys = engine.system().generate_keys(&mut rng);
    let images: Vec<Vec<i64>> = (0..5)
        .map(|b| {
            (0..784)
                .map(|p| ((p * 7 + b * 3) % 31) as i64 - 15)
                .collect()
        })
        .collect();
    let enc = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
    let layout = Layout::Orbit {
        batch: 5,
        side: 12,
        window: 2,
    };
    assert_eq!((enc.layout(), enc.cells().len()), (layout, 200));
    let (logits, counter) = engine.infer(&enc, &keys).unwrap();
    let dec = engine.decrypt_logits(&logits, &keys, 5).unwrap();
    for (b, img) in images.iter().enumerate() {
        let expect: Vec<i128> = model.forward_ints(img).iter().map(|&v| v as i128).collect();
        assert_eq!(dec[b], expect, "image {b}");
    }
    // Two channels × four members × two groups; ten logits × two groups × 8.
    assert_eq!((counter.ct_ct_mul, counter.rotations), (16, 160));
    let budget = (logits.cells().iter())
        .map(|ct| engine.system().noise_budget(ct, &keys.secret).unwrap())
        .min();
    assert!(budget.unwrap() > 0);
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
    let rows = logits
        .decrypt_all(
            service.system(),
            &ceremony.user_secret,
            4,
            &ParExec::serial(),
        )
        .unwrap();
    for (b, img) in images.iter().enumerate() {
        // The first maximum, as `predict_ints` picks it.
        let best = (0..rows[b].len()).rev().max_by_key(|&class| rows[b][class]);
        assert_eq!(best, Some(model.predict_ints(img)), "sample {b}");
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
        let rows = logits
            .decrypt_all(
                service.system(),
                &ceremony.user_secret,
                1,
                &ParExec::serial(),
            )
            .unwrap();
        for (class, &got) in rows[0].iter().enumerate() {
            let mut expect = model.fc_bias[class];
            for (i, &p) in pooled.iter().enumerate() {
                expect += model.fc_weights[class * model.fc_in() + i] * p;
            }
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
        let recorder = Recorder::enabled();
        let (service, ceremony) = HybridInference::provision_with(
            Platform::new(seed),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed,
                recorder: recorder.clone(),
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
        // The recorder is the one ledger of what the host observes: the
        // stage crossings (the noise probes an enabled recorder adds are
        // left out) plus the EPC page faults, each fault weighing four.
        let crossings: u64 = ["ecall.ecall_activation", "ecall.ecall_pool"]
            .iter()
            .flat_map(|prefix| recorder.spans_with_prefix(prefix))
            .map(|(_, span)| span.entries)
            .sum();
        let faults = recorder.counter(counters::EPC_PAGE_FAULTS);
        (crossings, crossings + 4 * faults)
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
    let mut ct = sys
        .encrypt(&[3], Encoding::Slots, &keys.public, &mut rng)
        .unwrap();
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
                Layout::Pixel,
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
            sys.decrypt(&fresh, Encoding::Slots, &keys.secret).unwrap()[0],
            expected
        );
        ct = fresh;
    }
}

/// The differential test of the layouts, ingress and egress. The same images
/// are served through `Session::serve` in both `Ingress` modes — which pick
/// both layouts by their count rules — and, on the same service, run by hand
/// from an explicit `Pixel` map and an explicit `Coeff` map: every row of
/// every path equals `forward_ints`, and the logit ciphertexts of the
/// hand-run paths are bit-identical across HE pool sizes (the packed FC is
/// one product chain per class and CRT part, whatever the pool). The model
/// is the 8×8 one with four maps and eight classes (`J = 36` FC inputs, so
/// `C·J = 288 ≥ 256`: wide enough to pack), at n = 256. Ingress edges: small
/// batches (1, 2, 5), the largest batch the rule still packs (63 cells
/// against 64 pixels) and one beyond it (64, served in `Pixel`), and —
/// forced by hand — 64, 65, 128 and 129 in `Coeff`, more images than
/// pixels. Egress edges, `P = ⌊256/B⌋` slots an image, `⌈36/P⌉` operand
/// cells and `⌈8/P⌉` logit cells: a batch of one (`P = 256`, one cell), `P =
/// 32` (8: two cells, 32 + 4), `P = 28` (9), `P = 17` (15: 17 + 17 + 2, the
/// last cell short), `P = 16` (16), `P = 15` (17), `P = 4` (63, 64: nine
/// cells, two of logits), `P = 2` (128: eighteen cells, four of logits —
/// 18 + 8 + 4 crossings against 36), and `P = 1` where packing crosses more
/// (129: back to `Pixel`).
#[test]
fn both_layouts_serve_identical_logits_at_every_batch_edge() {
    let model = wide_hybrid_model();
    for batch in [1usize, 2, 5, 8, 9, 15, 16, 17, 63, 64, 65, 128, 129] {
        let images: Vec<Vec<i64>> = (0..batch)
            .map(|b| (0..64).map(|p| ((p * 5 + b * 11) % 16) as i64).collect())
            .collect();
        let reference: Vec<Vec<i64>> = images.iter().map(|img| model.forward_ints(img)).collect();
        let coeff = Layout::Coeff {
            batch,
            side: 8,
            pitch: 8,
        };
        // What leaves the enclave for the FC layer when the batch came packed.
        let operand = Layout::for_fc(36, 8, batch, 256);
        assert_eq!(operand != Layout::Pixel, batch <= 128, "batch {batch}");
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
            let (sys, seeded) = (
                service.system(),
                service.system().seeded_ciphertext_byte_len(),
            );
            let ruled = service.ingress_layout(batch);
            assert_eq!(
                ruled,
                if batch <= 63 { coeff } else { Layout::Pixel },
                "{what}"
            );
            for ingress in [Ingress::FvCiphertext, Ingress::Transciphered] {
                let response = session
                    .serve(InferRequest::batch(images.clone()).ingress(ingress))
                    .unwrap();
                assert_eq!(response.logits, reference, "{what} {ingress:?}");
                // Conv, one crossing, FC; the closing reduction only behind
                // a packed egress; the ingress ECALL when transciphered.
                let stages =
                    3 + usize::from(batch <= 63) + usize::from(ingress == Ingress::Transciphered);
                assert_eq!(response.metrics.stages.len(), stages, "{what} {ingress:?}");
                if ingress == Ingress::FvCiphertext {
                    let cells = ruled.ingress_cells(8, 256);
                    assert_eq!(response.upload_bytes, (cells * seeded) as u64, "{what}");
                }
            }
            let by_hand = [Layout::Pixel, coeff].map(|layout| {
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
                // A per-pixel map does not say how many images it carries:
                // it leaves per pixel too.
                let packed = layout == coeff && operand != Layout::Pixel;
                let cells = match packed {
                    true => model.classes.div_ceil(256 / batch),
                    false => model.classes,
                };
                assert_eq!(logits.cells().len(), cells, "{what} {layout:?}");
                let rows = logits
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
                logits.into_cells()
            });
            assert_eq!(*bits.get_or_insert(by_hand.clone()), by_hand, "{what}");
        }
    }
}

/// Deterministic formula weights in the shape `benchmark/` builds its
/// workload models in: `in_side²` pixels, `conv_out` maps of `kernel²`, 2×2
/// pooling, `classes` outputs.
fn formula_model(in_side: usize, conv_out: usize, kernel: usize, classes: usize) -> QuantizedCnn {
    let conv_side = in_side - kernel + 1;
    let flat = conv_out * (conv_side / 2).pow(2);
    QuantizedCnn {
        pipeline: QuantPipeline::Hybrid,
        in_side,
        conv_out,
        kernel,
        window: 2,
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

/// A paper-geometry session (28×28 in, five 5×5 maps, 2×2 pooling, ten
/// classes, n = 1024) with an enabled recorder, and `batch` images for it.
fn paper_session(batch: usize) -> (hesgx_core::session::Session, Recorder, Vec<Vec<i64>>) {
    session_of(formula_model(28, 5, 5, 10), ParamsPreset::Paper, batch)
}

/// The ECALLs a session's pipeline stages booked, by name with their entry
/// counts (the key ceremony and the recorder's own noise probes left out).
fn stage_ecalls(rec: &Recorder) -> Vec<String> {
    let booked = rec.spans_with_prefix("ecall.ecall_").into_iter();
    booked
        .map(|(name, stats)| format!("{} x{}", &name["ecall.".len()..], stats.entries))
        .filter(|name| !name.starts_with("ecall_NoiseProbe") && !name.starts_with("ecall_generate"))
        .collect()
}

/// The benchmark's `fig8_fv` request — the paper's geometry at n = 1024 with
/// `batchSize = 10` — served packed both ways: 10 ingress ciphertexts (one an
/// image, its pixels the coefficients) instead of 784, 50 conv-output cells
/// (one kernel-polynomial product per map and image) instead of 2880; then
/// 8 FC operand cells (each of the 720 pooled values once, `P = ⌊1024/10⌋ =
/// 102` slots an image) instead of 720, 80 slot-wise multiplies (8 a class)
/// instead of 7200, 10 partial-sum cells (one a class) into the closing
/// reduction and one logits ciphertext out of it instead of ten.
#[test]
fn packed_paper_request_pins_its_op_counts() {
    let (session, rec, images) = paper_session(10);
    let model = session.model().clone();
    let marshalled = rec.counter(counters::BYTES_MARSHALLED);
    let response = session.serve(InferRequest::batch(images.clone())).unwrap();
    for (image, row) in images.iter().zip(&response.logits) {
        assert_eq!(row, &model.forward_ints(image));
    }
    assert_eq!(
        response.metrics.ops,
        OpCounter {
            ct_pt_mul: 50 + 80,
            ct_ct_add: 70,
            ct_pt_add: 50 + 10,
            ..OpCounter::default()
        }
    );
    assert_eq!(
        (
            response.metrics.ops.ct_pt_mul,
            response.metrics.ops.ct_ct_add,
            response.metrics.ops.ct_pt_add
        ),
        (130, 70, 60)
    );
    // Ten coefficient-encoded cells uploaded seeded (c0 and a 32-byte seed
    // a cell); the crossings below marshal whole ciphertexts.
    let seeded = session.service().system().seeded_ciphertext_byte_len() as u64;
    assert_eq!(response.upload_bytes, 10 * seeded);
    let fresh = session.service().system().fresh_ciphertext_byte_len() as u64;
    // Two crossings: 50 conv cells in and 8 operand cells out, then the
    // FC's 10 cells in and the one logits ciphertext out.
    assert_eq!(
        stage_ecalls(&rec),
        ["ecall_LogitReduce x1", "ecall_activation_pool x1"]
    );
    // (The recorder's four noise probes read the same 69 cells once more
    // and hand back four bytes each.)
    let crossed = (50 + 8 + 10 + 1) * fresh;
    assert_eq!(
        rec.counter(counters::BYTES_MARSHALLED) - marshalled,
        crossed + (crossed + 4 * 4)
    );
    assert_eq!(response.metrics.stages.len(), 4);
    // Each crossing touches the heap's first pages: the 50 and 10 cells
    // that cross in, then the values they fold to staged as `i64` (720 and
    // 10 outputs of 10 images: 57 600 and 800 bytes) — 415 and 81 pages.
    // The key ceremony made the first 16 resident, the first crossing
    // faults the other 399, and the second crossing's 81 are all resident
    // by then.
    let swap = hesgx_tee::cost::CostModel::default().page_swap_ns;
    let pages = |name: &str| rec.span(name).unwrap().cost.paging_ns / swap;
    let crossings = ["ecall.ecall_activation_pool", "ecall.ecall_LogitReduce"];
    assert_eq!(crossings.map(pages), [399, 0]);
    // 784 live coefficients of 1024 at ingress, 576 into the enclave; 7200
    // of 8 × 1024 slots out of it, and 1020 of 1024 partial sums a cell
    // into the reduction.
    assert_eq!(rec.gauge_series(counters::SLOT_OCCUPANCY_PPM), [765_625]);
    assert_eq!(
        rec.gauge_series("infer.layer[1].slot_occupancy_ppm"),
        [562_500]
    );
    assert_eq!(
        rec.gauge_series("infer.layer[3].slot_occupancy_ppm"),
        [996_093]
    );
}

/// The enclave heap stays resident between requests (SGX1 commits it at
/// `EINIT`; the EPC never has to evict a working set this small): the first
/// request on a paper-parameter session faults its pages in, the second
/// books no page fault and no paging time on any stage.
#[test]
fn a_warm_session_pages_nothing() {
    let (session, rec, images) = paper_session(1);
    let model = session.model().clone();
    let mut faults = Vec::new();
    for _ in 0..2 {
        let before = rec.counter(counters::EPC_PAGE_FAULTS);
        let response = session.serve(InferRequest::batch(images.clone())).unwrap();
        assert_eq!(response.logits, [model.forward_ints(&images[0])]);
        let stages = response.metrics.stages.iter();
        let paging = stages.filter_map(|stage| stage.enclave.as_ref());
        let paging: u64 = paging.map(|cost| cost.paging_ns).sum();
        faults.push((rec.counter(counters::EPC_PAGE_FAULTS) - before, paging));
    }
    let [(cold, cold_ns), warm] = faults[..] else {
        panic!("two requests");
    };
    assert!(cold > 0 && cold_ns > 0, "{faults:?}");
    assert_eq!(warm, (0, 0));
}

/// A session at `preset` with an enabled recorder serving `model`, and
/// `batch` images for it.
fn session_of(
    model: QuantizedCnn,
    preset: ParamsPreset,
    batch: usize,
) -> (hesgx_core::session::Session, Recorder, Vec<Vec<i64>>) {
    let rec = Recorder::enabled();
    let pixels = model.in_side * model.in_side;
    let session = SessionBuilder::new()
        .params(preset)
        .threads(2)
        .seed(2021)
        .recorder(rec.clone())
        .build(Platform::new(921), model)
        .unwrap();
    let images = (0..batch)
        .map(|b| (0..pixels).map(|p| ((p * 3 + b * 7) % 16) as i64).collect())
        .collect();
    (session, rec, images)
}

/// One image past the egress rule (`P = ⌊n/B⌋ = 1`: one cell per input is
/// no fewer than per pixel) the request still enters packed but runs
/// exactly the per-pixel egress's stages and crossings: one fused ECALL, two
/// transitions, the pooled values per pixel into the scalar FC, one logit
/// ciphertext a class, and no closing ECALL — not even an empty one. The
/// paper's model crosses at 513 images (`B ≤ 512` packs); the same rule is
/// served here on the broker's 12×12 geometry with sixteen classes at n =
/// 256, whose ingress packs up to 143 images and whose 50 pooled values
/// leave packed up to 128: a 129-image request.
#[test]
fn request_past_the_egress_rule_books_the_per_pixel_crossings() {
    let operand = |batch, inputs| Layout::FcOperand {
        classes: 1,
        batch,
        inputs,
    };
    assert_eq!(Layout::for_fc(720, 10, 512, 1024), operand(512, 720));
    assert_eq!(Layout::for_fc(720, 10, 513, 1024), Layout::Pixel);
    assert_eq!(Layout::for_fc(50, 16, 128, 256), operand(128, 50));
    assert_eq!(Layout::for_fc(50, 16, 129, 256), Layout::Pixel);
    let model = formula_model(12, 2, 3, 16);
    let (session, rec, images) = session_of(model.clone(), ParamsPreset::Small, 129);
    let coeff = Layout::Coeff {
        batch: 129,
        side: 12,
        pitch: 12,
    };
    assert_eq!(session.service().ingress_layout(129), coeff);
    let response = session.serve(InferRequest::batch(images.clone())).unwrap();
    for (image, row) in images.iter().zip(&response.logits) {
        assert_eq!(row, &model.forward_ints(image));
    }
    assert_eq!(stage_ecalls(&rec), ["ecall_activation_pool x1"]);
    // One enter and one exit: what the request paid in transitions is what
    // that one ECALL booked.
    let crossing = rec.span("ecall.ecall_activation_pool").unwrap().cost;
    let paid = hesgx_core::pipeline::total_enclave_cost(&response.metrics);
    assert_eq!(paid.transition_ns, crossing.transition_ns);
    assert_eq!(response.metrics.stages.len(), 3);
    // One product per map and image, then 16 × 50.
    assert_eq!(response.metrics.ops.ct_pt_mul, 2 * 129 + 16 * 50);
}

/// The packed FC's accumulators — per class 8 (paper model,
/// `ParamsPreset::Paper`) or 2 (the broker's 12×12 geometry with sixteen
/// classes, wide enough to pack, at `ParamsPreset::Small` and the broker's
/// `max_batch` of 8) multiplies by batch-encoded plaintexts summed into one
/// ciphertext —
/// reaches the closing reduction with at least 30 bits of noise budget:
/// the recorder's pre-crossing probe measures it inside the enclave.
#[test]
fn packed_fc_accumulator_keeps_its_noise_floor() {
    for (model, preset, batch) in [
        (formula_model(28, 5, 5, 10), ParamsPreset::Paper, 10),
        (formula_model(12, 2, 3, 16), ParamsPreset::Small, 8),
    ] {
        let rec = Recorder::enabled();
        let session = SessionBuilder::new()
            .params(preset)
            .threads(2)
            .seed(5)
            .recorder(rec.clone())
            .build(Platform::new(922), model.clone())
            .unwrap();
        let pixels = model.in_side * model.in_side;
        let images: Vec<Vec<i64>> = (0..batch)
            .map(|b| (0..pixels).map(|p| ((p * 3 + b * 7) % 16) as i64).collect())
            .collect();
        let response = session.serve(InferRequest::batch(images.clone())).unwrap();
        for (image, row) in images.iter().zip(&response.logits) {
            assert_eq!(row, &model.forward_ints(image), "{preset:?}");
        }
        assert_eq!(stage_ecalls(&rec).len(), 2, "{preset:?}: packed egress");
        let fresh = rec.gauge_series("noise.budget.layer[1].post");
        let accumulator = rec.gauge_series("noise.budget.layer[3].pre");
        println!("{preset:?}: {accumulator:?} bits of a fresh {fresh:?}");
        assert!(
            matches!(accumulator[..], [bits] if bits >= 30),
            "{preset:?}"
        );
    }
}
