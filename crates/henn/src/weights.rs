//! Model-weight encoding into the homomorphic plaintext space — the
//! preliminary step the edge server performs once per model (paper §IV-B) and
//! the workload of Fig. 3 ("the encoding time has a linear relationship with
//! the weights' number").

use crate::crt::{CrtPlainSystem, CrtPreparedBias, CrtPreparedScalar};
use hesgx_bfv::encoding::IntegerEncoder;
use hesgx_bfv::error::Result;
use hesgx_bfv::plaintext::Plaintext;

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
