//! Model-weight encoding into the homomorphic plaintext space — the
//! preliminary step the edge server performs once per model (paper §IV-B) and
//! the workload of Fig. 3 ("the encoding time has a linear relationship with
//! the weights' number").

use crate::crt::{CrtPlainSystem, CrtPreparedBias, CrtPreparedScalar};
use crate::image::fc_cell;
use hesgx_bfv::encoding::IntegerEncoder;
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::evaluator::PreparedBias;
use hesgx_bfv::plaintext::{NttPlaintext, Plaintext};

/// The plaintext encodings of one weight across every CRT modulus.
#[derive(Debug, Clone)]
pub struct EncodedWeight {
    /// One plaintext per plaintext modulus.
    pub parts: Vec<Plaintext>,
}

/// All prepared operands of one linear layer (conv or FC): scalar weights
/// with their per-limb Shoup constants and biases with their `Δ·c` residues,
/// computed once at provisioning. The conv/FC kernels in [`crate::ops`]
/// consume a bank instead of raw integers, so no request ever re-derives a
/// weight form.
#[derive(Debug, Clone)]
pub struct WeightBank {
    /// Prepared multiply operands, in the layer's flattened weight order.
    pub scalars: Vec<CrtPreparedScalar>,
    /// Prepared bias operands, one per output channel / neuron.
    pub biases: Vec<CrtPreparedBias>,
}

impl WeightBank {
    /// Prepares every weight and bias of one layer.
    ///
    /// # Errors
    ///
    /// Fails when a weight exceeds a plaintext modulus (never the case for
    /// quantized model weights).
    pub fn prepare(sys: &CrtPlainSystem, weights: &[i64], biases: &[i64]) -> Result<WeightBank> {
        Ok(WeightBank {
            scalars: weights
                .iter()
                .map(|&w| sys.prepare_scalar(w))
                .collect::<Result<_>>()?,
            biases: biases
                .iter()
                .map(|&b| sys.prepare_bias(b))
                .collect::<Result<_>>()?,
        })
    }
}

/// The fully connected layer's operands over a
/// [`Layout::FcOperand`](crate::image::Layout::FcOperand) map of `per_cell`
/// inputs a cell: per cell, the weights `W[class][g·L + j_local]` at
/// [`fc_slot`](crate::image::fc_slot), and the biases at `j_local = 0`, both
/// written into every image block a cell has room for — so a bank depends on
/// the model and `L` alone, never on the batch.
#[derive(Debug)]
pub struct FcOperandBank {
    /// Output classes of the layer.
    pub classes: usize,
    /// Inputs of the layer.
    pub inputs: usize,
    /// Inputs a cell holds (`L`).
    pub per_cell: usize,
    /// `[cell][part]` weight plaintexts, in evaluation form.
    pub weights: Vec<Vec<NttPlaintext>>,
    /// `[part]` bias addends, in evaluation form.
    pub bias: Vec<PreparedBias>,
}

impl FcOperandBank {
    /// Encodes `weights[class][input]` and one bias per class for cells of
    /// `per_cell` inputs.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when the weights are not one row per bias
    /// or one (class, image) block of `per_cell` inputs exceeds the slots.
    pub fn prepare(
        sys: &CrtPlainSystem,
        weights: &[i64],
        biases: &[i64],
        per_cell: usize,
    ) -> Result<FcOperandBank> {
        let (classes, slots) = (biases.len(), sys.slot_count());
        let block = per_cell.saturating_mul(classes);
        if block == 0 || block > slots || !weights.len().is_multiple_of(classes) {
            return Err(BfvError::InvalidShape(format!(
                "{} weights, {classes} classes, {per_cell} inputs a cell of {slots} slots",
                weights.len()
            )));
        }
        let (inputs, images) = (weights.len() / classes, slots / block);
        // One cell: `value(j_local, class, _)` in every image block.
        let cell = |value: &dyn Fn(usize, usize, usize) -> i64, live| {
            sys.encode_slots(&fc_cell(slots, (per_cell, live), (classes, images), value))
        };
        let ntt =
            |(part, plain): (usize, &Plaintext)| sys.evaluator(part).transform_plain_to_ntt(plain);
        let weights = (0..inputs.div_ceil(per_cell))
            .map(|g| {
                let (first, live) = (g * per_cell, per_cell.min(inputs - g * per_cell));
                let plain = cell(&|j, class, _| weights[class * inputs + first + j], live)?;
                plain.iter().enumerate().map(ntt).collect()
            })
            .collect::<Result<_>>()?;
        let bias = cell(&|_, class, _| biases[class], 1)?
            .into_iter()
            .enumerate();
        let bias = bias.map(|(part, plain)| sys.evaluator(part).prepare_plain_bias(&plain));
        Ok(FcOperandBank {
            classes,
            inputs,
            per_cell,
            weights,
            bias: bias.collect::<Result<_>>()?,
        })
    }
}

/// Encodes a model's integer weights into per-modulus plaintexts using the
/// SEAL-style integer encoder (low-norm digit expansion).
///
/// Returns one [`EncodedWeight`] per input weight. Encoding time is linear in
/// the number of weights and independent of the kernel-shape split that
/// produced them — the two claims of Fig. 3(a)/(b).
///
/// # Errors
///
/// Fails when a weight exceeds the encoder's representable range.
pub fn encode_weights(sys: &CrtPlainSystem, weights: &[i64]) -> Result<Vec<EncodedWeight>> {
    let degree = sys.contexts()[0].poly_degree();
    let encoders: Vec<IntegerEncoder> = sys
        .moduli()
        .iter()
        .map(|&t| IntegerEncoder::new(t, degree))
        .collect();
    weights
        .iter()
        .map(|&w| {
            let parts: Result<Vec<Plaintext>> = encoders.iter().map(|e| e.encode(w)).collect();
            Ok(EncodedWeight { parts: parts? })
        })
        .collect()
}

/// Counts the weights of a conv layer configuration: `kernels` kernels of
/// `k × k` values plus one bias each (the paper's Fig. 3 workload generator:
/// "The weights are divided into the value of kernels and bias").
pub fn conv_weight_count(kernels: usize, kernel_side: usize) -> usize {
    kernels * kernel_side * kernel_side + kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_every_weight_for_every_modulus() {
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let weights: Vec<i64> = (-10..10).collect();
        let encoded = encode_weights(&sys, &weights).unwrap();
        assert_eq!(encoded.len(), 20);
        assert!(encoded.iter().all(|e| e.parts.len() == 2));
    }

    #[test]
    fn weight_count_formula() {
        // 11 kernels of 3×3 -> 99 weights + 11 biases.
        assert_eq!(conv_weight_count(11, 3), 110);
        assert_eq!(conv_weight_count(26, 5), 26 * 25 + 26);
    }

    #[test]
    fn weight_bank_prepares_every_operand() {
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let weights: Vec<i64> = (-6..6).collect();
        let biases = vec![7i64, -11];
        let bank = WeightBank::prepare(&sys, &weights, &biases).unwrap();
        assert_eq!(bank.scalars.len(), 12);
        assert_eq!(bank.biases.len(), 2);
        assert!(bank.scalars.iter().all(|s| {
            (0..sys.part_count()).all(|i| {
                let _ = s.part(i);
                true
            })
        }));
    }

    #[test]
    fn encoded_weights_decode_back() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let encoder = IntegerEncoder::new(12289, 256);
        let encoded = encode_weights(&sys, &[-42, 0, 1234]).unwrap();
        assert_eq!(encoder.decode(&encoded[0].parts[0]).unwrap(), -42);
        assert_eq!(encoder.decode(&encoded[1].parts[0]).unwrap(), 0);
        assert_eq!(encoder.decode(&encoded[2].parts[0]).unwrap(), 1234);
    }
}
