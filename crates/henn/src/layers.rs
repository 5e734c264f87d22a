//! The HE layer bodies of the paper's 4-layer CNN: the one call site of each
//! [`crate::ops`] kernel.
//!
//! Both engines walk these. [`crate::cryptonets::CryptoNets`] runs all four
//! under encryption; the hybrid pipeline (`hesgx-core`) runs whichever ones
//! its plan places outside the enclave. A layer's output is always an
//! [`EncryptedMap`] — the FC logits are a `classes × 1 × 1` map — so layers
//! chain without the caller knowing which one came last.

use crate::crt::CrtPlainSystem;
use crate::image::{EncryptedMap, Layout};
use crate::ops::{self, OpCounter};
use crate::par::ParExec;
use crate::weights::{NttBank, NttGeometry, WeightBank};
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::prelude::{EvaluationKeys, GaloisKeys};
use hesgx_nn::quantize::QuantizedCnn;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};

/// One layer of the CNN as it is computed under HE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeLayer {
    /// Convolution with plaintext weights: scalars ([`ops::he_conv2d`]), or
    /// kernel polynomials over a [`Layout::Coeff`] map ([`ops::he_linear`]).
    Conv,
    /// The CryptoNets square activation: ciphertext × ciphertext multiply
    /// plus relinearization ([`ops::he_square_activation`]).
    Square,
    /// Mean-pooling without the division: the window sum
    /// ([`ops::he_scaled_mean_pool`]).
    SumPool,
    /// Fully connected layer with plaintext weights: [`ops::he_conv2d`] with
    /// the map-sized kernel, or [`ops::he_linear`] over a
    /// [`Layout::FcOperand`] or [`Layout::Orbit`] map.
    Fc,
}

/// Everything the HE layers of one model need: the CRT system, the weight
/// forms prepared once, and the worker pool.
#[derive(Debug)]
pub struct HeLayers {
    sys: CrtPlainSystem,
    model: QuantizedCnn,
    /// Conv weights/biases prepared once at construction — no request
    /// re-derives Shoup constants or `Δ·c` residues.
    conv_bank: WeightBank,
    /// FC weights/biases prepared once at construction.
    fc_bank: WeightBank,
    /// The evaluation-form banks by geometry, most recently used first, each
    /// cached once it has read a map; past `classes · fc_in` plaintext cells
    /// (the operand bank of `P = 1`) the least recently used go.
    ntt_banks: Mutex<Vec<Arc<NttBank>>>,
    pool: ParExec,
}

impl HeLayers {
    /// Prepares the conv and FC weight banks of `model` under `sys`. The
    /// caller has checked the model's geometry
    /// ([`QuantizedCnn::check_geometry`]).
    ///
    /// # Errors
    ///
    /// Fails when a weight exceeds a plaintext modulus.
    pub fn new(sys: CrtPlainSystem, model: QuantizedCnn, pool: ParExec) -> Result<Self> {
        let conv_bank = WeightBank::prepare(&sys, &model.conv_weights, &model.conv_bias)?;
        let fc_bank = WeightBank::prepare(&sys, &model.fc_weights, &model.fc_bias)?;
        Ok(HeLayers {
            sys,
            model,
            conv_bank,
            fc_bank,
            ntt_banks: Mutex::default(),
            pool,
        })
    }

    /// The CRT system the layers compute under.
    pub fn system(&self) -> &CrtPlainSystem {
        &self.sys
    }

    /// The quantized model.
    pub fn model(&self) -> &QuantizedCnn {
        &self.model
    }

    /// The HE worker pool.
    pub fn pool(&self) -> &ParExec {
        &self.pool
    }

    /// The evaluation-form bank that reads `input` (`Coeff`: the conv,
    /// `FcOperand` or `Orbit`: the FC layer): the cached one of its geometry,
    /// else a new one, cached only once it has accepted `input`.
    fn ntt_bank(&self, input: &EncryptedMap) -> Result<Arc<NttBank>> {
        let (sys, m, layout) = (&self.sys, &self.model, input.layout());
        let slots = sys.slot_count();
        let (side, pitch, pooled, inputs) = (m.kernel, m.in_side, m.pool_side(), m.fc_in());
        let per_image = layout.fc_geometry(slots).map_or(0, |(per, _)| per);
        let wanted = match layout {
            Layout::Coeff { .. } => NttGeometry::Coeff { side, pitch },
            Layout::Orbit { .. } => NttGeometry::Orbit { side: pooled },
            _ => NttGeometry::FcOperand { inputs, per_image },
        };
        let (cw, cb, fw, fb) = (&m.conv_weights, &m.conv_bias, &m.fc_weights, &m.fc_bias);
        let new = |x: Result<NttBank>| x.and_then(|b| b.reads(input, slots).map(|_| Arc::new(b)));
        let mut banks = (self.ntt_banks.lock()).unwrap_or_else(PoisonError::into_inner);
        let cached = banks.iter().position(|bank| bank.geometry == wanted);
        let bank = match (cached, wanted) {
            (Some(at), _) => banks.remove(at),
            (None, NttGeometry::Coeff { .. }) => new(NttBank::conv(sys, cw, cb, side, pitch))?,
            (None, NttGeometry::Orbit { .. }) => new(NttBank::fc_orbit(sys, fw, fb, pooled))?,
            (None, _) => new(NttBank::fc_operand(sys, fw, fb, per_image))?,
        };
        banks.insert(0, bank.clone());
        let (budget, mut held) = (m.classes * inputs, 0);
        banks.retain(|bank| {
            held += bank.rows.iter().map(Vec::len).sum::<usize>();
            held <= budget
        });
        Ok(bank)
    }

    /// Runs one HE layer over `input`. `evk` is read by [`HeLayer::Square`]
    /// only, `galois` by [`HeLayer::Fc`] over a [`Layout::Orbit`] map only.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for a packed input to a layer that does
    /// not read its layout ([`Layout::Coeff`]: the convolution,
    /// [`Layout::FcOperand`]: the fully connected layer); propagates
    /// homomorphic-operation failures.
    pub fn apply(
        &self,
        layer: HeLayer,
        input: &EncryptedMap,
        evk: &[EvaluationKeys],
        galois: &[GaloisKeys],
        counter: &mut OpCounter,
    ) -> Result<EncryptedMap> {
        let (sys, m, pool) = (&self.sys, &self.model, &self.pool);
        let (layout, (_, h, w)) = (input.layout(), input.shape());
        match (layer, layout) {
            (HeLayer::Conv, Layout::Coeff { .. })
            | (HeLayer::Fc, Layout::FcOperand { .. } | Layout::Orbit { .. }) => {
                let bank = self.ntt_bank(input)?;
                return ops::he_linear(sys, input, &bank, galois, counter, pool);
            }
            (_, Layout::Pixel | Layout::Orbit { .. }) => {}
            _ => {
                let claim = format!("{layer:?} does not read a {layout:?} map");
                return Err(BfvError::InvalidShape(claim));
            }
        }
        match layer {
            // Over an orbit map of `k²` channels it is a 1×1 convolution,
            // same bank: `[out][1][ky][kx]` and `[out][k²][1][1]` flatten
            // identically.
            HeLayer::Conv => {
                let k = if layout == Layout::Pixel { m.kernel } else { 1 };
                let bank = &self.conv_bank;
                let out = ops::he_conv2d(sys, input, bank, m.conv_out, (k, k), counter, pool)?;
                Ok(out.with_layout(layout))
            }
            HeLayer::Square => ops::he_square_activation(sys, input, evk, counter, pool),
            HeLayer::SumPool => ops::he_scaled_mean_pool(sys, input, m.window, counter, pool),
            // Paper Table VI, layer 4: the convolution whose kernel is the map.
            HeLayer::Fc => {
                ops::he_conv2d(sys, input, &self.fc_bank, m.classes, (h, w), counter, pool)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt::Encoding;
    use hesgx_crypto::rng::ChaChaRng;
    use hesgx_nn::quantize::QuantPipeline;

    /// The operand FC keeps a bank per `P` until the cache's cell budget
    /// (`classes · fc_in` = 54 here) runs out, then drops the least recently
    /// used: batches 10, 30, 10 (`P` 25, 8, 25) build two banks and reuse the
    /// first; 128 (`P` = 2, 27 cells) fits beside them; 85 (`P` = 3, 18
    /// cells) evicts `P` = 8. A map no bank reads — the layer's own partial
    /// sums, of a `P` not cached — is refused and leaves the cache as it was.
    /// Every pass is the plaintext FC.
    #[test]
    fn operand_banks_are_kept_per_batch_within_a_budget() {
        let model = QuantizedCnn {
            pipeline: QuantPipeline::CryptoNets,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 3,
            conv_weights: vec![1; 18],
            conv_bias: vec![0; 2],
            fc_weights: (0..54).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: vec![100, -50, 0],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        };
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(81);
        let keys = sys.generate_keys(&mut rng);
        let he = HeLayers::new(sys, model, ParExec::serial()).unwrap();
        let (sys, m) = (he.system(), he.model());
        let x = |image: usize, input: usize| ((input * 7 + image * 3) % 16) as i64 - 8;
        let held = || {
            let banks = he.ntt_banks.lock().unwrap();
            let per = |bank: &Arc<NttBank>| match bank.geometry {
                NttGeometry::FcOperand { per_image, .. } => per_image,
                other => panic!("{other:?} cached"),
            };
            banks.iter().map(per).collect::<Vec<_>>()
        };
        let mut first = None;
        let passes: [(usize, &[usize]); 5] = [
            (10, &[25]),
            (30, &[8, 25]),
            (10, &[25, 8]),
            (128, &[2, 25, 8]),
            (85, &[3, 2, 25]),
        ];
        for (batch, want) in passes {
            let layout = Layout::FcOperand {
                classes: 1,
                batch,
                inputs: 18,
            };
            let (per, cells) = layout.fc_geometry(256).unwrap();
            let rule = layout.slot_map((cells, 1, 1), 256).unwrap();
            let values = rule.encode(batch, |_, j, b| x(b, j)).unwrap();
            let encrypt = |v: &Vec<i64>| sys.encrypt(v, Encoding::Slots, &keys.secret, &mut rng);
            let cts = values.iter().map(encrypt).collect::<Result<_>>().unwrap();
            let map = EncryptedMap::new(cells, 1, 1, cts).with_layout(layout);
            let sums = he.apply(HeLayer::Fc, &map, &[], &[], &mut OpCounter::default());
            let rows = sums
                .unwrap()
                .decrypt_all(sys, &keys.secret, batch, he.pool());
            for (b, row) in rows.unwrap().iter().enumerate() {
                let logits: Vec<i128> = row.chunks(per).map(|sums| sums.iter().sum()).collect();
                let plain = (0..m.classes).map(|c| {
                    let dot = (0..18).map(|j| m.fc_weights[c * 18 + j] * x(b, j));
                    i128::from(dot.sum::<i64>() + m.fc_bias[c])
                });
                assert_eq!(
                    logits,
                    plain.collect::<Vec<_>>(),
                    "batch {batch}, image {b}"
                );
            }
            assert_eq!(held(), want, "batch {batch}");
            let newest = he.ntt_banks.lock().unwrap()[0].clone();
            let first = first.get_or_insert_with(|| newest.clone());
            assert_eq!(Arc::ptr_eq(first, &newest), per == 25, "batch {batch}");
            if batch == 30 {
                let sums = Layout::FcOperand {
                    classes: 3,
                    batch: 20,
                    inputs: 18,
                };
                let (_, cells) = sums.fc_geometry(256).unwrap();
                let zero = |_| sys.encrypt(&[0], Encoding::Slots, &keys.secret, &mut rng);
                let cts = (0..cells).map(zero).collect::<Result<_>>().unwrap();
                let map = EncryptedMap::new(cells, 1, 1, cts).with_layout(sums);
                let refused = he.apply(HeLayer::Fc, &map, &[], &[], &mut OpCounter::default());
                assert!(matches!(refused, Err(BfvError::InvalidShape(_))));
                assert_eq!(held(), want, "after the refused map");
            }
        }
    }
}
