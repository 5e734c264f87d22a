//! The pure-HE baseline: CryptoNets-style inference (paper \[16\], the
//! `Encrypted` scheme of Fig. 8).
//!
//! Pipeline: homomorphic convolution → square activation (ciphertext ×
//! ciphertext + relinearization) → scaled mean-pool (sums only) → homomorphic
//! fully connected layer. The entire computation happens under encryption;
//! the user decrypts the ten logits and takes the argmax.

use crate::crt::{CrtCiphertext, CrtKeys, CrtPlainSystem};
use crate::image::{EncryptedMap, Layout};
use crate::layers::{HeLayer, HeLayers};
use crate::ops::OpCounter;
use crate::par::ParExec;
use hesgx_bfv::error::{BfvError, Result};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};

/// The CryptoNets-style HE-only inference engine.
#[derive(Debug)]
pub struct CryptoNets {
    /// The baseline is single-threaded by definition: the layers run on a
    /// pool of one, inline on the calling thread.
    he: HeLayers,
}

impl CryptoNets {
    /// Every layer of the CNN under encryption, in order.
    const LAYERS: [HeLayer; 4] = [
        HeLayer::Conv,
        HeLayer::Square,
        HeLayer::SumPool,
        HeLayer::Fc,
    ];

    /// Builds the engine: selects plaintext moduli from the model's range
    /// report and constructs the per-modulus FV systems.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidShape`] when the model is not quantized
    /// for the CryptoNets pipeline or its geometry is inconsistent
    /// ([`QuantizedCnn::check_geometry`]), and propagates parameter
    /// validation failures.
    pub fn new(model: QuantizedCnn, poly_degree: usize) -> Result<Self> {
        if model.pipeline != QuantPipeline::CryptoNets {
            return Err(BfvError::InvalidShape(format!(
                "model quantized for {:?}, CryptoNets needs QuantPipeline::CryptoNets",
                model.pipeline
            )));
        }
        model.check_geometry().map_err(BfvError::InvalidShape)?;
        let report = model.range_report();
        // Depth-1 pipeline (the square) — small CRT moduli keep the
        // multiplication noise growth manageable.
        let sys = CrtPlainSystem::for_range_deep(poly_degree, report.required_plain_bits)?;
        Ok(CryptoNets {
            he: HeLayers::new(sys, model, ParExec::serial())?,
        })
    }

    /// The underlying CRT system (key generation, encryption).
    pub fn system(&self) -> &CrtPlainSystem {
        self.he.system()
    }

    /// The quantized model.
    pub fn model(&self) -> &QuantizedCnn {
        self.he.model()
    }

    /// Encrypts a batch of quantized images.
    ///
    /// # Errors
    ///
    /// Propagates encryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn encrypt_batch(
        &self,
        images: &[Vec<i64>],
        keys: &CrtKeys,
        rng: &mut ChaChaRng,
    ) -> Result<EncryptedMap> {
        let batch_rng = rng.fork_next("batch");
        EncryptedMap::encrypt_images(
            self.system(),
            images,
            self.model().in_side,
            Layout::Pixel,
            &keys.public,
            &batch_rng,
            self.he.pool(),
        )
    }

    /// Runs the full encrypted inference; returns one ciphertext per class
    /// logit (batch in the slots) and the operation counts.
    ///
    /// # Errors
    ///
    /// Propagates homomorphic-operation failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn infer(
        &self,
        input: &EncryptedMap,
        keys: &CrtKeys,
    ) -> Result<(Vec<CrtCiphertext>, OpCounter)> {
        let mut counter = OpCounter::default();
        let [first, rest @ ..] = Self::LAYERS;
        let mut map = self
            .he
            .apply(first, input, &keys.evaluation, &mut counter)?;
        for layer in rest {
            map = self.he.apply(layer, &map, &keys.evaluation, &mut counter)?;
        }
        Ok((map.into_cells(), counter))
    }

    /// Decrypts logits and returns the predicted class per batch element.
    ///
    /// # Errors
    ///
    /// Propagates decryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn decrypt_predictions(
        &self,
        logits: &[CrtCiphertext],
        keys: &CrtKeys,
        batch: usize,
    ) -> Result<Vec<usize>> {
        // The first maximum of each row.
        let first_max = |row: Vec<i128>| (0..row.len()).rev().max_by_key(|&class| row[class]);
        let rows = self.decrypt_logits(logits, keys, batch)?;
        Ok(rows
            .into_iter()
            .map(|row| first_max(row).unwrap_or(0))
            .collect())
    }

    /// Decrypts raw logits: `[batch][classes]`.
    ///
    /// # Errors
    ///
    /// Propagates decryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn decrypt_logits(
        &self,
        logits: &[CrtCiphertext],
        keys: &CrtKeys,
        batch: usize,
    ) -> Result<Vec<Vec<i128>>> {
        let mut per_class = Vec::with_capacity(logits.len());
        for ct in logits {
            per_class.push(self.system().decrypt_slots(ct, &keys.secret)?);
        }
        Ok((0..batch)
            .map(|b| per_class.iter().map(|slots| slots[b]).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down CryptoNets model (8×8 input) whose encrypted inference
    /// must match the exact-integer reference bit for bit.
    fn small_model() -> QuantizedCnn {
        QuantizedCnn {
            pipeline: QuantPipeline::CryptoNets,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 3,
            conv_weights: (0..18).map(|i| (i % 7) as i64 - 3).collect(),
            conv_bias: vec![5, -9],
            fc_weights: (0..3 * 18).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: vec![100, -50, 0],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        }
    }

    #[test]
    fn encrypted_inference_matches_integer_reference() {
        let model = small_model();
        let engine = CryptoNets::new(model.clone(), 256).unwrap();
        let mut rng = ChaChaRng::from_seed(71);
        let keys = engine.system().generate_keys(&mut rng);
        let images: Vec<Vec<i64>> = (0..3)
            .map(|b| (0..64).map(|p| ((p * 3 + b * 5) % 16) as i64).collect())
            .collect();
        let enc = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
        let (logits, counter) = engine.infer(&enc, &keys).unwrap();
        let dec = engine.decrypt_logits(&logits, &keys, 3).unwrap();
        for (b, img) in images.iter().enumerate() {
            let expect: Vec<i128> = model.forward_ints(img).iter().map(|&v| v as i128).collect();
            assert_eq!(dec[b], expect, "batch {b} logits must match reference");
        }
        // Operation counts: conv = out_side² * k² * channels multiplies.
        assert_eq!(counter.ct_pt_mul as usize, 2 * 36 * 9 + 3 * 18);
        assert_eq!(counter.ct_ct_mul as usize, 2 * 36);
        assert_eq!(counter.relin as usize, 2 * 36);
        // Every weight form was prepared at construction, none per request.
        assert_eq!(counter.weight_prep, 0);
    }

    #[test]
    fn predictions_follow_logits() {
        let model = small_model();
        let engine = CryptoNets::new(model.clone(), 256).unwrap();
        let mut rng = ChaChaRng::from_seed(72);
        let keys = engine.system().generate_keys(&mut rng);
        let images = vec![(0..64).map(|p| (p % 16) as i64).collect::<Vec<i64>>()];
        let enc = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
        let (logits, _) = engine.infer(&enc, &keys).unwrap();
        let preds = engine.decrypt_predictions(&logits, &keys, 1).unwrap();
        assert_eq!(preds[0], model.predict_ints(&images[0]));
    }

    #[test]
    fn modulus_selection_covers_model_range() {
        let model = small_model();
        let engine = CryptoNets::new(model.clone(), 256).unwrap();
        let bound = model.range_report().logit_bound as u128;
        assert!(engine.system().modulus_product() > 2 * bound);
    }
}
