//! Transciphered-ingress property tests (DESIGN.md §17).
//!
//! Two properties pin the acceptance criteria of the transciphered path:
//!
//! 1. **Logit bit-identity across ingress modes and pool sizes** — for any
//!    image batch, serving via [`Ingress::Transciphered`] produces logits
//!    bit-identical to [`Ingress::FvCiphertext`] at HE pool sizes 1/2/4.
//!    Both modes feed the same plaintext pixels into the same pipeline; the
//!    in-enclave FV re-encryption uses fresh randomness but decrypts to the
//!    same values, so the logits cannot differ.
//! 2. **Fault recovery is bit-invisible in the ciphertexts** — a scripted
//!    fault at the new `transcipher` site retries through the existing
//!    recovery ladder, and the re-encrypted cells carry exactly the same
//!    ciphertext bytes as a fault-free run (the RNG base is forked once per
//!    logical call, outside the retry loop).
//!
//! A third property pins admission, where both modes meet: an arbitrary
//! request is either refused with [`Error::Config`] before any ECALL, or
//! served exactly.

mod testutil;

use hesgx_core::keydist::derive_ingress_key;
use hesgx_core::prelude::*;
use hesgx_crypto::transcipher::seal_images;
use hesgx_henn::crt::CrtCiphertext;
use hesgx_nn::quantize::MAX_PIXEL;
use hesgx_obs::{counters, Recorder};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::{TestRng, TestRunner};

const POOLS: [usize; 3] = [1, 2, 4];

fn serve_logits(threads: usize, images: &[Vec<i64>], ingress: Ingress) -> Vec<Vec<i64>> {
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(threads)
        .seed(55)
        .build(Platform::new(910), testutil::small_hybrid_model())
        .unwrap();
    session
        .serve(InferRequest::batch(images.to_vec()).ingress(ingress))
        .unwrap()
        .logits
}

/// Runs the transcipher ECALL directly against the session's service so the
/// raw re-encrypted cells (ciphertext bytes, not decrypted values) are
/// observable. Both sessions share the seed, so the ingress key, the sealed
/// payload, and every RNG stream line up; only the fault plan differs.
fn ingress_cells(
    plan: Option<FaultPlan>,
    images: &[Vec<i64>],
) -> (Vec<CrtCiphertext>, Option<String>) {
    let mut builder = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(2)
        .seed(56);
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    let session = builder
        .build(Platform::new(911), testutil::small_hybrid_model())
        .unwrap();
    let ceremony = session.ceremony();
    let key = derive_ingress_key(&ceremony.public, &ceremony.user_secret);
    let payload = seal_images(&key, &[3u8; 12], images).unwrap();
    let (map, _) = session
        .service()
        .transcipher_ingress(&key, &payload)
        .unwrap();
    (map.cells().to_vec(), session.fault_report_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn transciphered_logits_match_fv_logits_at_every_pool_size(
        pixels in proptest::collection::vec(0i64..16, 64),
        shift in 0i64..8,
    ) {
        let images: Vec<Vec<i64>> = vec![
            pixels.clone(),
            pixels.iter().map(|&p| (p + shift) % 16).collect(),
        ];
        let reference = serve_logits(POOLS[0], &images, Ingress::FvCiphertext);
        for &threads in &POOLS {
            prop_assert_eq!(
                &serve_logits(threads, &images, Ingress::FvCiphertext),
                &reference,
                "FV ingress diverged at {} threads",
                threads
            );
            prop_assert_eq!(
                &serve_logits(threads, &images, Ingress::Transciphered),
                &reference,
                "transciphered ingress diverged at {} threads",
                threads
            );
        }
    }

    #[test]
    fn transcipher_fault_recovers_with_identical_ciphertext_bits(
        pixels in proptest::collection::vec(-50i64..50, 64),
    ) {
        let images = vec![pixels];
        let (clean, _) = ingress_cells(None, &images);
        let plan = FaultPlan::new(31).script(
            FaultSite::Transcipher,
            0,
            hesgx_chaos::FaultKind::Transient,
        );
        let (faulted, report) = ingress_cells(Some(plan), &images);
        let report = report.expect("chaos sessions carry a report");
        prop_assert!(
            report.contains("\"site\":\"transcipher\""),
            "fault must be delivered at the new site: {}",
            report
        );
        prop_assert!(
            report.contains("\"type\":\"recovered\""),
            "the existing ladder must recover the dropped upload: {}",
            report
        );
        prop_assert_eq!(clean, faulted, "retry changed ciphertext bits");
    }
}

/// One request at the edges of admission: 0 images, 1–4, or one more than
/// the ciphertext has slots; each image one pixel short, exact or one pixel
/// long; one image in four with a pixel at or past ±`MAX_PIXEL` (or at
/// `i64::MIN`/`i64::MAX`); either ingress mode.
fn admission_case(rng: &mut TestRng, pixels: usize, slots: usize) -> InferRequest {
    let count = match (0..6usize).generate(rng) {
        0 => 0,
        5 => slots + 1,
        k => k,
    };
    let images = (0..count)
        .map(|_| {
            let len = match (0..6usize).generate(rng) {
                0 => pixels - 1,
                1 => pixels + 1,
                _ => pixels,
            };
            let mut image = vec(-MAX_PIXEL..MAX_PIXEL + 1, len).generate(rng);
            if (0..4).generate(rng) == 0 {
                let edges = [
                    i64::MIN,
                    -MAX_PIXEL - 1,
                    -MAX_PIXEL,
                    MAX_PIXEL,
                    MAX_PIXEL + 1,
                    i64::MAX,
                    any::<i64>().generate(rng),
                ];
                image[(0..len).generate(rng)] = edges[(0..edges.len()).generate(rng)];
            }
            image
        })
        .collect();
    let ingress = if any::<bool>().generate(rng) {
        Ingress::Transciphered
    } else {
        Ingress::FvCiphertext
    };
    InferRequest::batch(images).ingress(ingress)
}

#[test]
fn admission_refuses_before_any_ecall_or_serves_exactly() {
    let rec = Recorder::enabled();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(2)
        .seed(57)
        .recorder(rec.clone())
        .build(Platform::new(912), testutil::small_hybrid_model())
        .unwrap();
    let model = session.model().clone();
    let pixels = model.in_side * model.in_side;
    let slots = session.service().system().slot_count();
    let admissible = |images: &[Vec<i64>]| {
        (1..=slots).contains(&images.len())
            && images.iter().all(|image| {
                image.len() == pixels && image.iter().all(|p| (-MAX_PIXEL..=MAX_PIXEL).contains(p))
            })
    };

    let mut runner = TestRunner::new(
        ProptestConfig::with_cases(32),
        "admission_refuses_before_any_ecall_or_serves_exactly",
    );
    runner.run(|rng| {
        let request = admission_case(rng, pixels, slots);
        let images = request.images.clone();
        let ecalls = rec.counter(counters::ECALLS);
        match session.serve(request) {
            Ok(response) => {
                prop_assert!(admissible(&images), "served a malformed batch");
                let exact: Vec<Vec<i64>> = images.iter().map(|i| model.forward_ints(i)).collect();
                prop_assert_eq!(response.logits, exact);
            }
            Err(err) => {
                prop_assert!(!admissible(&images), "refused a valid batch: {err}");
                prop_assert!(matches!(err, Error::Config(_)), "{err:?}");
                prop_assert_eq!(
                    rec.counter(counters::ECALLS),
                    ecalls,
                    "refused after an ECALL"
                );
            }
        }
        Ok(())
    });

    // Nothing the refusals touched outlives them.
    let image: Vec<i64> = (0..pixels as i64).map(|p| p % 31 - 15).collect();
    let response = session.serve(InferRequest::single(image.clone())).unwrap();
    assert_eq!(response.logits, vec![model.forward_ints(&image)]);
}
