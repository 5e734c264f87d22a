//! End-to-end chaos test: a full MNIST-shaped inference driven through every
//! fault site, with coverage asserted from the resulting `FaultReport`.
//!
//! One scripted plan injects a fault at each of the eight sites exactly
//! where the session will consult it:
//!
//! * `attestation-verify` — during `SessionBuilder::build`'s quote check
//!   (transient, retried);
//! * `seal` + `unseal` — the provisioning seal is corrupted and the first
//!   unseal is interrupted, so `verify_sealed_state` must heal by
//!   re-provisioning;
//! * `epc-load` / `epc-evict` — pressure faults on the first resident hit
//!   and the first page fault (extra paging, never an error);
//! * `ecall-enter` / `ecall-exit` — the fused activation + pooling ECALL
//!   (the request's second fallible crossing, after the ingress ECALL) is
//!   interrupted on entry, and its retry loses the result on exit (both
//!   retried — two of the budget of three);
//! * `noise-refresh` — no compiled plan refreshes, so the same request runs
//!   again through a hand-built plan with an `Enclave([Refresh])` stage
//!   between pooling and the FC layer, and that refresh request is dropped
//!   once (retried);
//! * `transcipher` — the request ships as a transciphered payload and the
//!   first upload is dropped in transit (retried).
//!
//! After all of that, the decrypted logits must still be bit-identical to
//! the plaintext reference — recovery is invisible in the output.

mod testutil;

use hesgx_chaos::{FaultKind, FaultPlan, FaultSite};
use hesgx_core::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::CrtCiphertext;
use hesgx_henn::image::EncryptedMap;
use hesgx_henn::par::ParExec;

#[test]
fn every_fault_site_fires_once_and_inference_stays_exact() {
    let plan = FaultPlan::new(7)
        .script(FaultSite::AttestationVerify, 0, FaultKind::Transient)
        .script(FaultSite::Seal, 0, FaultKind::Corruption)
        .script(FaultSite::Unseal, 0, FaultKind::Corruption)
        .script(FaultSite::EpcLoad, 0, FaultKind::Pressure)
        .script(FaultSite::EpcEvict, 0, FaultKind::Pressure)
        // Enter 0 / exit 0 are the ingress ECALL's clean second attempt.
        .script(FaultSite::EcallEnter, 1, FaultKind::Transient)
        .script(FaultSite::EcallExit, 1, FaultKind::Transient)
        .script(FaultSite::NoiseRefresh, 0, FaultKind::Transient)
        .script(FaultSite::Transcipher, 0, FaultKind::Transient);

    // The paper's parameters: a 28×28 image fits one polynomial there, so
    // the request enters one cell and leaves packed (at n = 256 it would be
    // served per pixel both ways).
    let model = testutil::hybrid_paper_model(1);
    let session = SessionBuilder::new()
        .params(ParamsPreset::Paper)
        .threads(2)
        .seed(13)
        .chaos(plan)
        .build(Platform::new(500), model.clone())
        .unwrap();

    // Seal corruption is silent at provisioning time; the sealed-state probe
    // detects it and heals by re-provisioning with the same seed.
    assert!(
        session.verify_sealed_state().unwrap(),
        "corrupted seal must force a re-provision"
    );

    // Full 28×28 inference through the faulty boundary, shipped as a
    // transciphered payload so the new ingress site is exercised too. Its
    // egress is packed, so the closing reduction crosses as well — after
    // the fused ECALL's last attempt, behind every scripted occurrence.
    let image: Vec<i64> = (0..28 * 28).map(|p| (p % 16) as i64).collect();
    let response = session
        .serve(InferRequest::single(image.clone()).ingress(Ingress::Transciphered))
        .unwrap();
    let reference = vec![model.forward_ints(&image)];
    assert_eq!(
        response.logits, reference,
        "recovered inference must stay bit-identical to the reference"
    );
    // Five stages ran: transciphered ingress, conv, activation + pooling in
    // one crossing, FC, the closing reduction.
    assert_eq!(response.metrics.stages.len(), 5);

    // The noise-refresh site: the service's plan by hand, a refresh stage
    // after pooling (per pixel: the egress rule packs only a crossing that
    // feeds the FC layer), over the same image one cell by the client.
    let service = session.service();
    let mut refreshed = service.plan().clone();
    refreshed
        .stages
        .insert(2, Stage::enclave(EnclaveOp::Refresh));
    let enc = EncryptedMap::encrypt_images(
        service.system(),
        std::slice::from_ref(&image),
        28,
        service.ingress_layout(1),
        &session.ceremony().public,
        &ChaChaRng::from_seed(14),
        &ParExec::serial(),
    )
    .unwrap();
    let (logits, metrics) = service.run(&refreshed, &enc).unwrap();
    let secret = &session.ceremony().user_secret;
    let rows = logits.decrypt_all(service.system(), secret, 1, &ParExec::serial());
    let wide = |row: &Vec<i64>| row.iter().map(|&v| i128::from(v)).collect::<Vec<_>>();
    assert_eq!(
        rows.unwrap(),
        reference.iter().map(wide).collect::<Vec<_>>()
    );
    assert_eq!(metrics.stages[2].name, "Noise Refresh (SGX inside)");
    drop(service);

    // Coverage: every one of the nine sites injected at least once.
    let report = session.fault_report().expect("chaos plan installed");
    assert_eq!(
        report.sites_injected(),
        FaultSite::ALL.to_vec(),
        "full report: {}",
        report.to_json()
    );
    assert!(report.reprovisioned(), "seal corruption must re-provision");
    assert_eq!(
        report.retries(),
        5,
        "attestation/transcipher/enter/exit/refresh faults all retry: {}",
        report.to_json()
    );
}

/// The closing `ecall_LogitReduce` is a crossing like any other: a request
/// served packed both ways crosses twice (enter/exit occurrences 0 and 1), and
/// losing the reduction's entry and then its result costs two retries and
/// changes nothing in the logits. (The paper-model session above reduces too,
/// after the occurrences it scripts.)
#[test]
fn closing_reduction_retries_like_any_other_crossing() {
    let plan = FaultPlan::new(8)
        .script(FaultSite::EcallEnter, 1, FaultKind::Transient)
        .script(FaultSite::EcallExit, 1, FaultKind::Transient);
    let model = testutil::wide_hybrid_model();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(2)
        .seed(14)
        .chaos(plan)
        .build(Platform::new(503), model.clone())
        .unwrap();
    let images: Vec<Vec<i64>> = (0..3)
        .map(|b| (0..64).map(|p| ((p * 7 + b) % 16) as i64).collect())
        .collect();
    let response = session.serve(InferRequest::batch(images.clone())).unwrap();
    for (image, row) in images.iter().zip(&response.logits) {
        assert_eq!(row, &model.forward_ints(image));
    }
    assert_eq!(response.metrics.stages.len(), 4);
    assert_eq!(
        response.metrics.stages[3].name,
        "Logit Reduction (SGX inside)"
    );
    let report = session.fault_report().unwrap();
    assert_eq!(report.injected_at(FaultSite::EcallEnter), 1);
    assert_eq!(report.injected_at(FaultSite::EcallExit), 1);
    assert_eq!(report.retries(), 2, "{}", report.to_json());
}

/// Four consecutive aborted `EENTER`s from occurrence `first` on — one more
/// than the default budget of three retries on the ECALL they hit.
fn exhaust_the_retry_budget(first: u64) -> FaultPlan {
    (first..first + 4).fold(FaultPlan::new(9), |plan, occurrence| {
        plan.script(FaultSite::EcallEnter, occurrence, FaultKind::Transient)
    })
}

/// Exhausting the retry budget must not kill the service: the resilient
/// entry point degrades to the pure-HE plan — on a service whose parameters
/// carry it (its moduli begin with the ones the pure-HE range needs) — and
/// the degraded logits are exact against the pure-HE reference.
///
/// The rung serves `CryptoNets`' orbit plan whichever way the request came
/// in and on any pool: the FC rotates, the square runs once a conv cell
/// (2 channels × 4 window members), and the coefficient-encoded request is
/// re-encrypted once in the orbit layout, so the response owns its first
/// upload plus one fresh ciphertext an orbit cell.
#[test]
fn exhausted_budget_degrades_instead_of_failing() {
    let model = QuantizedCnn {
        act_scale: 1 << 23,
        ..testutil::small_hybrid_model()
    };
    let pure_he = QuantizedCnn {
        pipeline: QuantPipeline::CryptoNets,
        ..model.clone()
    };
    let image: Vec<i64> = (0..64).map(|p| (p % 4) as i64).collect();
    for ingress in [Ingress::FvCiphertext, Ingress::Transciphered] {
        // A transciphered request crosses once before the exhausted ECALL.
        let first = u64::from(ingress == Ingress::Transciphered);
        let request = || {
            let request = InferRequest::single(image.clone()).ingress(ingress);
            request.resilience(Resilience::Degrade)
        };
        let mut served = Vec::new();
        for threads in [1, 2] {
            let build = |chaos: Option<FaultPlan>| {
                let builder = SessionBuilder::new()
                    .params(ParamsPreset::Small)
                    .threads(threads)
                    .seed(21);
                let builder = match chaos {
                    Some(plan) => builder.chaos(plan),
                    None => builder,
                };
                builder.build(Platform::new(501), model.clone()).unwrap()
            };
            let what = format!("{ingress:?}, {threads} threads");
            let exact = build(None).serve(request()).unwrap();
            assert_eq!(exact.served, Served::Exact, "{what}");
            let session = build(Some(exhaust_the_retry_budget(first)));
            let response = session.serve(request()).unwrap();
            assert_eq!(response.served, Served::Degraded, "{what}");
            assert_eq!(
                response.logits,
                vec![pure_he.forward_ints(&image)],
                "{what}"
            );
            let report = session.fault_report().unwrap();
            assert!(report.degraded(), "{what}");
            assert_eq!(report.injected_at(FaultSite::EcallEnter), 4, "{what}");
            let ops = response.metrics.ops;
            assert!(ops.rotations > 0, "{what}: {ops:?}");
            assert_eq!(ops.ct_ct_mul, 8, "{what}: {ops:?}");

            let service = session.service();
            let plan = service.degraded_plan().expect("the deep model has one");
            let layout = plan.ingress_layout(&model, 1, 256);
            let cells = layout.ingress_cells(model.in_side, 256) as u64;
            assert_eq!(cells, 36, "{layout:?}");
            // The rung re-sends the batch as seeded cells: c0 and a seed.
            let seeded = service.system().seeded_ciphertext_byte_len() as u64;
            assert_eq!(
                response.upload_bytes,
                exact.upload_bytes + cells * seeded,
                "{what}"
            );
            // The same plan over a hand-encrypted orbit map: its logit
            // ciphertexts still hold noise budget, so the values above were
            // not luck.
            let enc = EncryptedMap::encrypt_images(
                service.system(),
                std::slice::from_ref(&image),
                model.in_side,
                layout,
                &session.ceremony().public,
                &ChaChaRng::from_seed(22),
                &ParExec::serial(),
            )
            .unwrap();
            let (logits, _) = service.run(plan, &enc).unwrap();
            let refs: Vec<&CrtCiphertext> = logits.cells().iter().collect();
            let (budget, _) = service
                .enclave()
                .noise_probe(service.system(), &refs)
                .unwrap();
            assert!(
                budget > 0,
                "{what}: degraded logits ran out of noise budget"
            );
            served.push(response.logits);
        }
        assert_eq!(served[0], served[1], "{ingress:?}: pool sizes disagree");
    }
}

/// A model whose pure-HE range does not fit `i64` (conv and FC weights of
/// ±2^20, a 49-bit hybrid range): `forward_ints` of its CryptoNets twin
/// wraps, so there is no exact reference to serve. The hybrid service
/// provisions without a degraded rung and the exhausted `Degrade` request
/// gets the transient error; an engine whose own range overflows is refused.
#[test]
fn a_pure_he_range_past_i64_has_no_degraded_rung() {
    use hesgx_bfv::error::BfvError;
    use hesgx_henn::cryptonets::CryptoNets;
    let signed = |n: usize, magnitude: i64| -> Vec<i64> {
        (0..n).map(|i| [magnitude, -magnitude][i % 2]).collect()
    };
    let model = QuantizedCnn {
        conv_weights: signed(18, 1 << 20),
        fc_weights: signed(3 * 18, 1 << 20),
        act_scale: 1 << 23,
        ..testutil::small_hybrid_model()
    };
    let report = model.range_report().unwrap();
    assert_eq!(report.required_plain_bits, 49);
    let pure_he = QuantizedCnn {
        pipeline: QuantPipeline::CryptoNets,
        ..model.clone()
    };
    assert!(pure_he.range_report().is_err());
    let err = CryptoNets::new(pure_he, 256).unwrap_err();
    assert!(matches!(err, BfvError::InvalidShape(_)), "{err}");

    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(1)
        .seed(25)
        .chaos(exhaust_the_retry_budget(0))
        .build(Platform::new(504), model.clone())
        .unwrap();
    assert!(session.service().degraded_plan().is_none());
    let image: Vec<i64> = (0..64).map(|p| (p % 4) as i64).collect();
    let err = session
        .serve(InferRequest::single(image).resilience(Resilience::Degrade))
        .unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert!(!session.fault_report().unwrap().degraded());

    // A hybrid model whose own range overflows is refused at provisioning.
    let wide = QuantizedCnn {
        fc_weights: signed(3 * 18, 1 << 40),
        ..model
    };
    let err = HybridInference::provision_with(
        Platform::new(505),
        wide,
        ProvisionConfig {
            poly_degree: 256,
            ..ProvisionConfig::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, Error::Config(_)), "{err}");
}

/// At the paper's scale the service is sized for the hybrid plan alone (one
/// ~17-bit plaintext modulus); the pure-HE plan's logits reach tens of
/// millions and would come back wrapped modulo it. No degraded plan is
/// compiled, so a `Degrade` request that exhausts its retries is refused —
/// the transient error propagates exactly as for a fail-fast request and
/// nothing is reported as degraded.
#[test]
fn degrade_request_at_paper_scale_is_refused_not_served_wrapped() {
    let session = SessionBuilder::new()
        .params(ParamsPreset::Paper)
        .threads(2)
        .seed(23)
        .chaos(exhaust_the_retry_budget(0))
        .build(Platform::new(502), testutil::hybrid_paper_model(5))
        .unwrap();
    assert!(session.service().degraded_plan().is_none());
    let image: Vec<i64> = (0..28 * 28).map(|p| (p % 16) as i64).collect();
    let err = session
        .serve(InferRequest::single(image).resilience(Resilience::Degrade))
        .unwrap_err();
    assert!(err.is_transient(), "{err}");
    let report = session.fault_report().unwrap();
    assert!(!report.degraded());
    assert_eq!(report.injected_at(FaultSite::EcallEnter), 4);
}
