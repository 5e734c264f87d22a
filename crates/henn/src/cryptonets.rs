//! The pure-HE baseline: CryptoNets-style inference (paper \[16\], the
//! `Encrypted` scheme of Fig. 8).
//!
//! Pipeline: homomorphic convolution → square activation (ciphertext ×
//! ciphertext + relinearization) → scaled mean-pool (sums only) → homomorphic
//! fully connected layer. The entire computation happens under encryption;
//! the user decrypts the ten logits and takes the argmax.
//! A batch enters as [`Layout::Orbit`] when that is fewer ciphertexts (only
//! the FC rotates); a [`Layout::Pixel`] map runs the paper's plan.
//! Its layers, moduli, rotations and ingress rule ([`Layout::for_orbit`]) are
//! also what a hybrid service's degraded rung (`hesgx-core`) serves.

use crate::crt::{CrtKeys, CrtPlainSystem};
use crate::image::{orbit_stride, EncryptedMap, Layout};
use crate::layers::{HeLayer, HeLayers};
use crate::ops::OpCounter;
use crate::par::ParExec;
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::keys::orbit_steps;
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
    pub const LAYERS: [HeLayer; 4] = [
        HeLayer::Conv,
        HeLayer::Square,
        HeLayer::SumPool,
        HeLayer::Fc,
    ];

    /// Ciphertext multiplications on the path of [`CryptoNets::LAYERS`].
    pub const DEPTH: u32 = 1;

    /// The plaintext moduli of the plan for `model` (quantized for
    /// [`QuantPipeline::CryptoNets`]): its range at [`CryptoNets::DEPTH`].
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when that range does not fit `i64`.
    pub fn moduli(model: &QuantizedCnn, poly_degree: usize) -> Result<Vec<u64>> {
        let report = model.range_report().map_err(BfvError::InvalidShape)?;
        Ok(CrtPlainSystem::moduli_for(
            poly_degree,
            report.required_plain_bits,
            Self::DEPTH,
        ))
    }

    /// The row rotations the plan's FC takes over a [`Layout::Orbit`] map of
    /// `model` at `poly_degree` ([`orbit_steps`]): a function of the geometry,
    /// never of the batch. None where no orbit fits a row.
    pub fn rotations(model: &QuantizedCnn, poly_degree: usize) -> Vec<usize> {
        let stride = orbit_stride(model.pool_side(), poly_degree);
        stride.map_or(Vec::new(), |stride| {
            orbit_steps(poly_degree, stride).collect()
        })
    }

    /// Builds the engine: the per-modulus FV systems of
    /// [`CryptoNets::moduli`], declaring [`CryptoNets::rotations`].
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidShape`] when the model is not quantized
    /// for the CryptoNets pipeline, its geometry is inconsistent
    /// ([`QuantizedCnn::check_geometry`]) or its range does not fit `i64`,
    /// and propagates parameter validation failures.
    pub fn new(model: QuantizedCnn, poly_degree: usize) -> Result<Self> {
        if model.pipeline != QuantPipeline::CryptoNets {
            return Err(BfvError::InvalidShape(format!(
                "model quantized for {:?}, CryptoNets needs QuantPipeline::CryptoNets",
                model.pipeline
            )));
        }
        model.check_geometry().map_err(BfvError::InvalidShape)?;
        let sys = CrtPlainSystem::new(poly_degree, &Self::moduli(&model, poly_degree)?)?;
        let sys = sys.with_rotations(Self::rotations(&model, poly_degree));
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

    /// Encrypts a batch of quantized images in [`Layout::for_orbit`]'s layout
    /// under the secret keys — the caller holds `s`, so the cells are
    /// evaluation-form symmetric ciphertexts (three transforms a cell part
    /// instead of seven).
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for an empty batch or an image the model
    /// does not accept ([`QuantizedCnn::accepts_image`]: a pixel past
    /// `±MAX_PIXEL` would wrap modulo `t`); propagates encryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn encrypt_batch(
        &self,
        images: &[Vec<i64>],
        keys: &CrtKeys,
        rng: &mut ChaChaRng,
    ) -> Result<EncryptedMap> {
        let m = self.model();
        if images.is_empty() || !images.iter().all(|img| m.accepts_image(img)) {
            let refused = "an empty batch or an image the model does not accept";
            return Err(BfvError::InvalidShape(refused.into()));
        }
        let slots = self.system().slot_count();
        let layout = Layout::for_orbit(m.in_side, m.kernel, m.window, images.len(), slots);
        let batch_rng = rng.fork_next("batch");
        EncryptedMap::encrypt_images(
            self.system(),
            images,
            m.in_side,
            layout,
            &keys.secret,
            &batch_rng,
            self.he.pool(),
        )
    }

    /// Runs the full encrypted inference over a map in either layout; returns
    /// the logits map and the operation counts. Reads no secret key.
    ///
    /// # Errors
    ///
    /// Propagates homomorphic-operation failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn infer(&self, input: &EncryptedMap, keys: &CrtKeys) -> Result<(EncryptedMap, OpCounter)> {
        let mut counter = OpCounter::default();
        let (evk, galois) = (&keys.evaluation, &keys.galois);
        let [first, rest @ ..] = Self::LAYERS;
        let mut map = self.he.apply(first, input, evk, galois, &mut counter)?;
        for layer in rest {
            map = self.he.apply(layer, &map, evk, galois, &mut counter)?;
        }
        Ok((map, counter))
    }

    /// Decrypts logits and returns the predicted class per batch element.
    ///
    /// # Errors
    ///
    /// `InvalidShape` past the images `logits` holds; propagates decryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn decrypt_predictions(
        &self,
        logits: &EncryptedMap,
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
    /// `InvalidShape` past the images `logits` holds; propagates decryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "pure-HE baseline runs client and server in one process; the caller holds its own keys")
    pub fn decrypt_logits(
        &self,
        logits: &EncryptedMap,
        keys: &CrtKeys,
        batch: usize,
    ) -> Result<Vec<Vec<i128>>> {
        logits.decrypt_all(self.system(), &keys.secret, batch, self.he.pool())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt::Encoding;

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

    /// `batch` images of `side × side` pixels in `0..16`.
    fn images(batch: usize, side: usize) -> Vec<Vec<i64>> {
        (0..batch)
            .map(|b| {
                (0..side * side)
                    .map(|p| ((p * 3 + b * 5) % 16) as i64)
                    .collect()
            })
            .collect()
    }

    /// Infers `enc` and checks every image's logits against `forward_ints`.
    fn exact(
        engine: &CryptoNets,
        keys: &CrtKeys,
        images: &[Vec<i64>],
        enc: &EncryptedMap,
    ) -> OpCounter {
        let (logits, counter) = engine.infer(enc, keys).unwrap();
        let dec = engine.decrypt_logits(&logits, keys, images.len()).unwrap();
        for (b, img) in images.iter().enumerate() {
            let expect: Vec<i128> = engine
                .model()
                .forward_ints(img)
                .iter()
                .map(|&v| v as i128)
                .collect();
            assert_eq!(dec[b], expect, "batch {b} logits must match reference");
        }
        counter
    }

    #[test]
    fn encrypted_inference_matches_integer_reference() {
        let model = small_model();
        let engine = CryptoNets::new(model.clone(), 256).unwrap();
        let mut rng = ChaChaRng::from_seed(71);
        let keys = engine.system().generate_keys(&mut rng);
        let images = images(3, 8);
        // The paper's plan: one ciphertext per pixel.
        let pool = ParExec::serial();
        let pixel = EncryptedMap::encrypt_images(
            engine.system(),
            &images,
            8,
            Layout::Pixel,
            &keys.public,
            &rng,
            &pool,
        )
        .unwrap();
        let counter = exact(&engine, &keys, &images, &pixel);
        // Operation counts: conv = out_side² * k² * channels multiplies.
        assert_eq!(counter.ct_pt_mul as usize, 2 * 36 * 9 + 3 * 18);
        assert_eq!(counter.ct_ct_mul as usize, 2 * 36);
        assert_eq!(counter.relin as usize, 2 * 36);
        assert_eq!(counter.rotations, 0);
        // Every weight form was prepared at construction, none per request.
        assert_eq!(counter.weight_prep, 0);
        // The orbit plan `encrypt_batch` picks: 36 ingress cells (9 offsets ×
        // 4 window members), 8 conv cells, 6 FC slot vectors, and each of
        // the 3 logits summed over an orbit of 16 positions in 4 rotations.
        let orbit = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
        assert_eq!(
            orbit.layout(),
            Layout::Orbit {
                batch: 3,
                side: 3,
                window: 2
            }
        );
        assert_eq!(orbit.cells().len(), 36);
        let counter = exact(&engine, &keys, &images, &orbit);
        assert_eq!(
            counter,
            OpCounter {
                ct_pt_mul: 8 * 9 + 6,
                ct_ct_add: 8 * 8 + 2 * 3 + 3 * (1 + 4),
                ct_pt_add: 8 + 3,
                ct_ct_mul: 8,
                relin: 8,
                rotations: 12,
                weight_prep: 0,
            }
        );
    }

    /// A batch wider than one orbit cell's images takes a cell per group and
    /// per plane, until one per pixel is fewer ciphertexts: the 12×12 model
    /// at n = 256 holds 8 images a group, 36 cells a group against 144
    /// pixels; the 8×8 model 16 images, 36 cells against 64.
    #[test]
    fn wide_batches_take_more_cells_or_fall_back_to_pixels() {
        let wide = QuantizedCnn {
            in_side: 12,
            fc_weights: (0..3 * 50).map(|i| (i % 5) as i64 - 2).collect(),
            ..small_model()
        };
        for (model, batch, cells) in [(wide, 9, 72), (small_model(), 17, 64)] {
            let side = model.in_side;
            let engine = CryptoNets::new(model, 256).unwrap();
            let mut rng = ChaChaRng::from_seed(73);
            let keys = engine.system().generate_keys(&mut rng);
            let images = images(batch, side);
            let enc = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
            assert_eq!(enc.cells().len(), cells, "{side}×{side}, batch {batch}");
            let counter = exact(&engine, &keys, &images, &enc);
            let (pixel, squares) = (enc.layout() == Layout::Pixel, counter.ct_ct_mul);
            assert_eq!(
                (pixel, squares),
                if side == 8 { (true, 72) } else { (false, 16) }
            );
        }
    }

    /// An image the model does not accept, and an empty batch, are refused
    /// before anything is encrypted.
    #[test]
    fn encrypt_batch_refuses_what_the_model_does_not_accept() {
        let engine = CryptoNets::new(small_model(), 256).unwrap();
        let mut rng = ChaChaRng::from_seed(74);
        let keys = engine.system().generate_keys(&mut rng);
        let good = images(1, 8).remove(0);
        let mut short = good.clone();
        short.pop();
        let (mut bright, mut dark) = (good.clone(), good.clone());
        bright[5] = 16;
        dark[0] = -16;
        for batch in [
            vec![],
            vec![good.clone(), short],
            vec![bright],
            vec![good, dark],
        ] {
            let refused = engine.encrypt_batch(&batch, &keys, &mut rng);
            assert!(
                matches!(refused, Err(BfvError::InvalidShape(_))),
                "{batch:?}"
            );
        }
    }

    /// A key set of fewer parts than the system's is an error, never a
    /// panic: in the square layer (a task per part) and in encryption,
    /// decryption, relinearization and the noise budget.
    #[test]
    fn a_short_key_set_is_refused() {
        let engine = CryptoNets::new(small_model(), 256).unwrap();
        let sys = engine.system();
        assert_eq!(sys.part_count(), 2);
        let mut rng = ChaChaRng::from_seed(75);
        let keys = sys.generate_keys(&mut rng);
        let enc = engine
            .encrypt_batch(&images(1, 8), &keys, &mut rng)
            .unwrap();
        let short = CrtKeys {
            public: keys.public[..1].to_vec(),
            secret: keys.secret[..1].to_vec(),
            evaluation: keys.evaluation[..1].to_vec(),
            galois: keys.galois[..1].to_vec(),
        };
        let mismatch = Err(BfvError::ContextMismatch);
        assert_eq!(engine.infer(&enc, &short).map(|_| ()), mismatch);
        let cell = &enc.cells()[0];
        let encrypted = sys.encrypt(&[1], Encoding::Slots, &short.public, &mut rng);
        assert_eq!(encrypted.map(|_| ()), mismatch);
        let decrypted = sys.decrypt(cell, Encoding::Slots, &short.secret);
        assert_eq!(decrypted.map(|_| ()), mismatch);
        let squared = sys.square(cell).unwrap();
        assert_eq!(
            sys.relinearize(&squared, &short.evaluation).map(|_| ()),
            mismatch
        );
        assert_eq!(sys.noise_budget(cell, &short.secret).map(|_| ()), mismatch);
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
        let bound = model.range_report().unwrap().logit_bound as u128;
        assert!(engine.system().modulus_product() > 2 * bound);
    }
}
