//! The pure-HE path pinned end to end on the 12×12 model of the `purehe_12`
//! benchmark workload (n = 1024), the SHA-256 over its serialized logits
//! ciphertexts checked in, for both plans:
//!
//! - the paper's one pixel per ciphertext (an explicit `Layout::Pixel` map:
//!   200 squares and relinearisations). Its hash was computed with the
//!   wide-integer (`U256`) tensor product; a kernel change that moves one
//!   bit of one limb moves it.
//! - the orbit layout `CryptoNets::encrypt_batch` picks (8 squares, 15
//!   rotations), its cells encrypted under the secret keys: exact op
//!   counts, and every slot of every logit ciphertext holds its image's
//!   whole logit — no partial sum of the FC reaches the user.

use hesgx_bfv::serialization::ciphertext_to_bytes;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::sha256::sha256;
use hesgx_henn::crt::CrtKeys;
use hesgx_henn::crt::Encoding;
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::ops::OpCounter;
use hesgx_henn::par::ParExec;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};

const PIXEL_LOGITS_SHA256: &str =
    "abab664837223e1157e3ab904689de641cd05217c1787c8dc7b214139bf439a6";
const ORBIT_LOGITS_SHA256: &str =
    "7817653a28da857accb1ba608cde788fdcb4854a94e6e87fc7310bdb4c4c9477";
const BATCH: usize = 10;

/// The benchmark's formula model: 12×12 in, 2 maps 3×3, 2×2 pool, 3 classes.
fn model_12() -> QuantizedCnn {
    let (in_side, conv_out, kernel, window, classes) = (12, 2, 3, 2, 3);
    let pool_side = (in_side - kernel + 1) / window;
    let flat = conv_out * pool_side * pool_side;
    QuantizedCnn {
        pipeline: QuantPipeline::CryptoNets,
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

/// The engine, its keys, and the batch, drawn as before the orbit layout:
/// keys first, then the images, from one stream.
fn setup() -> (QuantizedCnn, CryptoNets, CrtKeys, Vec<Vec<i64>>, ChaChaRng) {
    let model = model_12();
    let engine = CryptoNets::new(model.clone(), 1024).unwrap();
    let mut rng = ChaChaRng::from_seed(2021).fork("purehe-golden");
    let keys = engine.system().generate_keys(&mut rng);
    let images: Vec<Vec<i64>> = (0..BATCH)
        .map(|_| (0..144).map(|_| rng.next_below(16) as i64).collect())
        .collect();
    (model, engine, keys, images, rng)
}

/// Infers, checks the predictions, and hashes the logits ciphertexts.
fn run(
    (model, engine, keys, images): (&QuantizedCnn, &CryptoNets, &CrtKeys, &[Vec<i64>]),
    encrypted: &EncryptedMap,
) -> (EncryptedMap, OpCounter, String) {
    let (logits, ops) = engine.infer(encrypted, keys).unwrap();
    let predicted = engine.decrypt_predictions(&logits, keys, BATCH).unwrap();
    for (image, class) in images.iter().zip(predicted) {
        assert_eq!(model.predict_ints(image), class);
    }
    let rows = engine.decrypt_logits(&logits, keys, BATCH).unwrap();
    for (image, row) in images.iter().zip(&rows) {
        let want: Vec<i128> = model
            .forward_ints(image)
            .iter()
            .map(|&v| v.into())
            .collect();
        assert_eq!(row, &want);
    }
    let mut bytes = Vec::new();
    for ct in logits.cells() {
        for part in 0..ct.part_count() {
            bytes.extend_from_slice(&ciphertext_to_bytes(ct.part(part)));
        }
    }
    let hex = sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect();
    (logits, ops, hex)
}

#[test]
fn purehe_12_logits_ciphertexts_are_pinned() {
    let (model, engine, keys, images, mut rng) = setup();
    let encrypted = EncryptedMap::encrypt_images(
        engine.system(),
        &images,
        12,
        Layout::Pixel,
        &keys.public,
        &rng.fork_next("batch"),
        &ParExec::serial(),
    )
    .unwrap();
    let (logits, ops, hex) = run((&model, &engine, &keys, &images), &encrypted);
    assert_eq!((ops.ct_ct_mul, ops.relin), (200, 200));
    let budget = engine
        .system()
        .noise_budget(&logits.cells()[0], &keys.secret);
    assert!(budget.unwrap() > 0);
    assert_eq!(hex, PIXEL_LOGITS_SHA256);
}

#[test]
fn purehe_12_orbit_logits_are_pinned_and_whole() {
    let (model, engine, keys, images, mut rng) = setup();
    let encrypted = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
    let layout = Layout::Orbit {
        batch: BATCH,
        side: 5,
        window: 2,
    };
    assert_eq!(encrypted.layout(), layout);
    assert_eq!(encrypted.cells().len(), 36);
    let (logits, ops, hex) = run((&model, &engine, &keys, &images), &encrypted);
    // 8 conv cells of 9 taps and 6 FC slot vectors; 3 logits × 5 rotations.
    assert_eq!(
        ops,
        OpCounter {
            ct_pt_mul: 8 * 9 + 6,
            ct_ct_add: 8 * 8 + 2 * 3 + 3 * (1 + 5),
            ct_pt_add: 8 + 3,
            ct_ct_mul: 8,
            relin: 8,
            rotations: 15,
            weight_prep: 0,
        }
    );
    let sys = engine.system();
    let budget = sys.noise_budget(&logits.cells()[0], &keys.secret).unwrap();
    assert!(budget > 0, "final noise budget {budget}");
    // Every slot of class c's ciphertext is a whole logit c: image b's
    // wherever the orbit's slot map puts b (read as a group of 2·stride =
    // 32 images, the empty ones holding the all-zero image's), and 32 times
    // over in all — each image's orbit, its 7 padding positions included.
    let group = 32;
    let whole = Layout::Orbit {
        batch: group,
        side: 5,
        window: 2,
    };
    let rule = whole.slot_map(logits.shape(), 1024).unwrap();
    let (_, positions, _) = rule.extent();
    let zero = model.forward_ints(&[0; 144]);
    let want: Vec<Vec<i64>> = (0..group)
        .map(|b| {
            images
                .get(b)
                .map_or(zero.clone(), |img| model.forward_ints(img))
        })
        .collect();
    let cells: Vec<Vec<i128>> = (logits.cells().iter())
        .map(|ct| sys.decrypt(ct, Encoding::Slots, &keys.secret).unwrap())
        .collect();
    for (class, slots) in cells.iter().enumerate() {
        for (b, logits) in want.iter().enumerate() {
            for position in 0..positions {
                let got = rule.decode(&cells, class, position, b).unwrap();
                assert_eq!(got, logits[class].into(), "class {class}, image {b}");
            }
        }
        let mut held = slots.clone();
        let mut orbits: Vec<i128> = (want.iter())
            .flat_map(|logits| [i128::from(logits[class]); 32])
            .collect();
        held.sort_unstable();
        orbits.sort_unstable();
        assert_eq!(held, orbits, "class {class}");
    }
    assert_eq!(hex, ORBIT_LOGITS_SHA256);
}
