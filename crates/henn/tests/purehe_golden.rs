//! The pure-HE path pinned end to end: one `CryptoNets::infer` on the 12×12
//! model of the `purehe_12` benchmark workload (n = 1024, 200 squares and
//! relinearisations), the SHA-256 over its serialized logits ciphertexts
//! checked in. The hash was computed with the wide-integer (`U256`) tensor
//! product; a kernel change that moves one bit of one limb moves it.

use hesgx_bfv::serialization::ciphertext_to_bytes;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::sha256::sha256;
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};

const LOGITS_SHA256: &str = "abab664837223e1157e3ab904689de641cd05217c1787c8dc7b214139bf439a6";
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

#[test]
fn purehe_12_logits_ciphertexts_are_pinned() {
    let model = model_12();
    let engine = CryptoNets::new(model.clone(), 1024).unwrap();
    let mut rng = ChaChaRng::from_seed(2021).fork("purehe-golden");
    let keys = engine.system().generate_keys(&mut rng);
    let images: Vec<Vec<i64>> = (0..BATCH)
        .map(|_| (0..144).map(|_| rng.next_below(16) as i64).collect())
        .collect();
    let encrypted = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
    let (logits, ops) = engine.infer(&encrypted, &keys).unwrap();
    assert_eq!((ops.ct_ct_mul, ops.relin), (200, 200));

    let predicted = engine.decrypt_predictions(&logits, &keys, BATCH).unwrap();
    for (image, class) in images.iter().zip(predicted) {
        assert_eq!(model.predict_ints(image), class);
    }

    let mut bytes = Vec::new();
    for ct in &logits {
        for part in 0..ct.part_count() {
            bytes.extend_from_slice(&ciphertext_to_bytes(ct.part(part)));
        }
    }
    let hex: String = sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, LOGITS_SHA256);
}
