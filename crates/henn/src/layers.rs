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
use crate::weights::{FcOperandBank, KernelBank, OrbitFcBank, WeightBank};
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::prelude::{EvaluationKeys, GaloisKeys};
use hesgx_nn::quantize::QuantizedCnn;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};

/// One layer of the CNN as it is computed under HE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeLayer {
    /// Convolution with plaintext weights ([`ops::he_conv2d`]; over a
    /// [`Layout::Coeff`] map, [`ops::he_conv_coeff`]).
    Conv,
    /// The CryptoNets square activation: ciphertext × ciphertext multiply
    /// plus relinearization ([`ops::he_square_activation`]).
    Square,
    /// Mean-pooling without the division: the window sum
    /// ([`ops::he_scaled_mean_pool`]).
    SumPool,
    /// Fully connected layer with plaintext weights: [`ops::he_conv2d`] with
    /// the map-sized kernel (over a [`Layout::FcOperand`] map,
    /// [`ops::he_fc_operand`]; over a [`Layout::Orbit`] map,
    /// [`ops::he_fc_orbit`]).
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
    /// The conv layer as kernel polynomials over [`Layout::Coeff`] maps,
    /// built on the first such map (never, for an engine that reads none).
    kernel_bank: Mutex<Option<Arc<KernelBank>>>,
    /// FC weights/biases prepared once at construction.
    fc_bank: WeightBank,
    /// The FC operands over [`Layout::FcOperand`] maps, built on first use:
    /// at most one bank per distinct `P` (slots an image).
    fc_operands: Mutex<Vec<Arc<FcOperandBank>>>,
    /// The FC operands over [`Layout::Orbit`] maps, when the system rotates.
    orbit_fc: Option<OrbitFcBank>,
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
        let (fc, side) = ((&model.fc_weights, &model.fc_bias), model.pool_side());
        let orbit_fc = (!sys.rotations.is_empty())
            .then(|| OrbitFcBank::prepare(&sys, fc.0, fc.1, side))
            .transpose()?;
        Ok(HeLayers {
            sys,
            model,
            conv_bank,
            kernel_bank: Mutex::default(),
            fc_bank,
            fc_operands: Mutex::default(),
            orbit_fc,
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

    /// The conv kernel polynomials over `Coeff` maps of the model's images
    /// (pitch `in_side`).
    fn kernel_bank(&self) -> Result<Arc<KernelBank>> {
        let mut bank = (self.kernel_bank.lock()).unwrap_or_else(PoisonError::into_inner);
        if let Some(bank) = bank.as_ref() {
            return Ok(bank.clone());
        }
        let m = &self.model;
        let (weights, biases) = (&m.conv_weights, &m.conv_bias);
        let built = Arc::new(KernelBank::prepare(
            &self.sys, weights, biases, m.kernel, m.in_side,
        )?);
        *bank = Some(built.clone());
        Ok(built)
    }

    /// The FC operand bank for cells of `per_image` slots an image.
    fn fc_operands(&self, per_image: usize) -> Result<Arc<FcOperandBank>> {
        let mut banks = self
            .fc_operands
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(bank) = banks.iter().find(|bank| bank.per_image == per_image) {
            return Ok(bank.clone());
        }
        let m = &self.model;
        let bank = Arc::new(FcOperandBank::prepare(
            &self.sys,
            &m.fc_weights,
            &m.fc_bias,
            per_image,
        )?);
        banks.push(bank.clone());
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
        let readable = matches!(
            (layer, layout),
            (_, Layout::Pixel | Layout::Orbit { .. })
                | (HeLayer::Conv, Layout::Coeff { .. })
                | (HeLayer::Fc, Layout::FcOperand { .. })
        );
        if !readable {
            return Err(BfvError::InvalidShape(format!(
                "{layer:?} does not read a {layout:?} map"
            )));
        }
        match layer {
            HeLayer::Conv => match layout {
                Layout::Coeff { .. } => {
                    ops::he_conv_coeff(sys, input, &*self.kernel_bank()?, counter, pool)
                }
                // Over an orbit map of `k²` channels it is a 1×1 convolution,
                // same bank: `[out][1][ky][kx]` and `[out][k²][1][1]` flatten
                // identically.
                _ => {
                    let k = if layout == Layout::Pixel { m.kernel } else { 1 };
                    let bank = &self.conv_bank;
                    let out = ops::he_conv2d(sys, input, bank, m.conv_out, (k, k), counter, pool)?;
                    Ok(out.with_layout(layout))
                }
            },
            HeLayer::Square => ops::he_square_activation(sys, input, evk, counter, pool),
            HeLayer::SumPool => ops::he_scaled_mean_pool(sys, input, m.window, counter, pool),
            HeLayer::Fc if matches!(layout, Layout::Orbit { .. }) => {
                let bank = self.orbit_fc.as_ref();
                let bank = bank.ok_or_else(|| BfvError::InvalidShape("no rotations".into()))?;
                ops::he_fc_orbit(sys, input, bank, galois, counter, pool)
            }
            HeLayer::Fc if layout != Layout::Pixel => {
                let slots = sys.slot_count();
                layout.slot_map(input.shape(), slots)?;
                let claim = || BfvError::InvalidShape(format!("{layout:?}"));
                let (per_image, _) = layout.fc_geometry(slots).ok_or_else(claim)?;
                let bank = self.fc_operands(per_image)?;
                ops::he_fc_operand(sys, input, &bank, counter, pool)
            }
            // Paper Table VI, layer 4: the convolution whose kernel is the map.
            HeLayer::Fc => {
                ops::he_conv2d(sys, input, &self.fc_bank, m.classes, (h, w), counter, pool)
            }
        }
    }
}
