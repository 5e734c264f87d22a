//! Model-weight encoding into the homomorphic plaintext space — the
//! preliminary step the edge server performs once per model (paper §IV-B) and
//! the workload of Fig. 3 ("the encoding time has a linear relationship with
//! the weights' number"). This module is the one place a model weight becomes
//! a plaintext operand: a slot-wise scalar with its Shoup constants, a bias as
//! `Δ·b` residues, a kernel polynomial of a coefficient-encoded convolution,
//! or a batch-encoded cell of a packed FC layer, laid out by the
//! [`SlotMap`](crate::image::SlotMap) of the map it multiplies.

use crate::crt::{CrtPlainSystem, CrtPreparedBias, CrtPreparedScalar, Encoding};
use crate::image::{orbit_stride, Layout};
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::evaluator::PreparedBias;
use hesgx_bfv::plaintext::NttPlaintext;

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
    /// Prepares every weight and bias of one layer. Preparation time is
    /// linear in the number of operands and independent of the kernel-shape
    /// split that produced them — the two claims of Fig. 3(a)/(b).
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

/// A stride-1 `side × side` convolution's operands over [`Layout::Coeff`]
/// maps of row pitch `pitch`: per (output, input) channel the kernel
/// polynomial `K(X) = Σ w[dy][dx]·X^-(dy·pitch + dx)` mod `Xⁿ + 1`, so that
/// coefficient `y·pitch + x` of `x·K` is the window sum at `(y, x)`, and per
/// output channel its bias at every coefficient — both in evaluation form.
#[derive(Debug, Clone)]
pub struct KernelBank {
    /// Row pitch of the maps the kernels convolve.
    pub pitch: usize,
    /// Side of the square kernel.
    pub side: usize,
    /// `[out·inputs + input][part]` kernel polynomials.
    pub kernels: Vec<Vec<NttPlaintext>>,
    /// `[out][part]` bias addends.
    pub biases: Vec<Vec<PreparedBias>>,
}

impl KernelBank {
    /// Encodes `weights[out][in][side][side]` and one bias per output
    /// channel.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when the weights are not whole kernels per
    /// bias or a kernel's taps would wrap (`(side − 1)·(pitch + 1) ≥ n`);
    /// fails when a weight exceeds a plaintext modulus.
    pub fn prepare(
        sys: &CrtPlainSystem,
        weights: &[i64],
        biases: &[i64],
        side: usize,
        pitch: usize,
    ) -> Result<KernelBank> {
        let n = sys.slot_count();
        let taps = biases.len().saturating_mul(side).saturating_mul(side);
        let reach = (side.saturating_sub(1)).saturating_mul(pitch.saturating_add(1));
        if taps == 0 || !weights.len().is_multiple_of(taps) || reach >= n || side > pitch {
            let count = weights.len();
            let claim = format!("{count} weights as {side}×{side} kernels of pitch {pitch}");
            return Err(BfvError::InvalidShape(claim));
        }
        let kernel = |taps: &[i64]| {
            let mut coeffs = vec![0i64; n];
            for (tap, &w) in taps.iter().enumerate() {
                // X^-m = −X^(n−m) for 0 < m < n.
                match (tap / side) * pitch + tap % side {
                    0 => coeffs[0] = w,
                    m => coeffs[n - m] = -w,
                }
            }
            coeffs
        };
        let kernels: Vec<Vec<i64>> = weights.chunks(side * side).map(kernel).collect();
        let bias = |&b: &i64| bias_parts(sys, &vec![b; n], Encoding::Coeffs);
        Ok(KernelBank {
            pitch,
            side,
            kernels: ntt_cells(sys, &kernels, Encoding::Coeffs)?,
            biases: biases.iter().map(bias).collect::<Result<_>>()?,
        })
    }
}

/// Cells encoded as `encoding` says, in evaluation form, `[cell][part]`.
fn ntt_cells(
    sys: &CrtPlainSystem,
    cells: &[Vec<i64>],
    encoding: Encoding,
) -> Result<Vec<Vec<NttPlaintext>>> {
    let cell = |values| -> Result<Vec<_>> {
        let plain = sys.encode(values, encoding)?.into_iter().enumerate();
        plain
            .map(|(part, p)| sys.evaluator(part).transform_plain_to_ntt(&p))
            .collect()
    };
    cells.iter().map(|values| cell(values)).collect()
}

/// `values` encoded as `encoding` says and prepared as an addend, `[part]`.
fn bias_parts(
    sys: &CrtPlainSystem,
    values: &[i64],
    encoding: Encoding,
) -> Result<Vec<PreparedBias>> {
    let plain = sys.encode(values, encoding)?.into_iter().enumerate();
    plain
        .map(|(part, p)| sys.evaluator(part).prepare_plain_bias(&p))
        .collect()
}

/// The fully connected layer's operands over a one-class
/// [`Layout::FcOperand`] map of `P` slots an image: per (class, cell), the
/// weights `W[class][input]` where its [`SlotMap`](crate::image::SlotMap)
/// puts `(0, input, image)`, and per class the bias at partial sum 0, both
/// written into every `P`-slot block a cell has — so a bank depends on the
/// model and `P` alone, never on the batch.
#[derive(Debug)]
pub struct FcOperandBank {
    /// Inputs of the layer.
    pub inputs: usize,
    /// Slots an image (`P`).
    pub per_image: usize,
    /// `[class][cell][part]` weight plaintexts, in evaluation form.
    pub weights: Vec<Vec<Vec<NttPlaintext>>>,
    /// `[class][part]` bias addends, in evaluation form.
    pub bias: Vec<Vec<PreparedBias>>,
}

impl FcOperandBank {
    /// Encodes `weights[class][input]` and one bias per class for operand
    /// cells of `per_image` slots an image (`P`), `⌊slots / P⌋` images a cell.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when the weights are not one row per bias
    /// or no batch leaves `per_image` slots an image.
    pub fn prepare(
        sys: &CrtPlainSystem,
        weights: &[i64],
        biases: &[i64],
        per_image: usize,
    ) -> Result<FcOperandBank> {
        let (classes, slots) = (biases.len(), sys.slot_count());
        let inputs = weights.len().checked_div(classes).unwrap_or(0);
        let batch = slots.checked_div(per_image).unwrap_or(0);
        let operand = Layout::FcOperand {
            classes: 1,
            batch,
            inputs,
        };
        let geometry = operand
            .fc_geometry(slots)
            .filter(|&(per, _)| per == per_image);
        let rule = geometry.map(|(_, cells)| operand.slot_map((cells, 1, 1), slots));
        let Some(Ok(rule)) = rule.filter(|_| weights.len() == classes * inputs) else {
            let count = weights.len();
            let claim = format!("{count} weights, {classes} classes, P = {per_image}");
            return Err(BfvError::InvalidShape(claim));
        };
        let row = |class: usize| -> Result<_> {
            let cells = rule.encode(batch, |_, input, _| weights[class * inputs + input])?;
            ntt_cells(sys, &cells, Encoding::Slots)
        };
        // A class's bias where the first cell holds input 0, partial sum 0.
        let bias = |&b: &i64| {
            let first = rule.encode(batch, |_, input, _| if input == 0 { b } else { 0 })?;
            bias_parts(sys, &first[0], Encoding::Slots)
        };
        Ok(FcOperandBank {
            inputs,
            per_image,
            weights: (0..classes).map(row).collect::<Result<_>>()?,
            bias: biases.iter().map(bias).collect::<Result<_>>()?,
        })
    }
}

/// The fully connected layer's operands over a [`Layout::Orbit`] map of
/// pooled side `side`: per (class, channel), `W[class][channel·side² +
/// position]` where the pooled map's [`SlotMap`](crate::image::SlotMap)
/// puts every image of a group (zero at the orbit's padding positions), and
/// the class biases — the model's and `n`'s alone, never the batch's.
#[derive(Debug)]
pub struct OrbitFcBank {
    /// Side of the pooled map.
    pub side: usize,
    /// `[class·channels + channel][part]` weight vectors, in evaluation form.
    pub weights: Vec<Vec<NttPlaintext>>,
    /// One constant bias per class.
    pub bias: Vec<CrtPreparedBias>,
}

impl OrbitFcBank {
    /// Encodes `weights[class][channel][position]`, one row a cell of a
    /// pooled orbit map (`window: 1`) of one group, and one bias per class.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when the weights are not whole
    /// `channels × side²` rows per bias or the orbit has no stride; fails
    /// when a weight exceeds a plaintext modulus.
    pub fn prepare(
        sys: &CrtPlainSystem,
        weights: &[i64],
        biases: &[i64],
        side: usize,
    ) -> Result<OrbitFcBank> {
        let (slots, positions) = (sys.slot_count(), side * side);
        let row = biases.len().saturating_mul(positions);
        let fits = row > 0 && weights.len().is_multiple_of(row);
        let Some(stride) = orbit_stride(side, slots).filter(|_| fits) else {
            let count = weights.len();
            return Err(BfvError::InvalidShape(format!(
                "{count} weights, side {side}"
            )));
        };
        let layout = Layout::Orbit {
            batch: 2 * stride,
            side,
            window: 1,
        };
        let rule = layout.slot_map((weights.len() / positions, 1, 1), slots)?;
        let weight = |row, position, _| weights[row * positions + position];
        let cells = rule.encode(2 * stride, weight)?;
        let bias = biases.iter().map(|&b| sys.prepare_bias(b));
        Ok(OrbitFcBank {
            side,
            weights: ntt_cells(sys, &cells, Encoding::Slots)?,
            bias: bias.collect::<Result<_>>()?,
        })
    }
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
    use hesgx_bfv::ciphertext::Ciphertext;
    use hesgx_bfv::decryptor::Decryptor;
    use hesgx_bfv::encoding::BatchEncoder;
    use hesgx_crypto::rng::ChaChaRng;

    #[test]
    fn encodes_every_weight_for_every_modulus() {
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let weights: Vec<i64> = (-10..10).collect();
        let bank = WeightBank::prepare(&sys, &weights, &[1, -1]).unwrap();
        assert_eq!(bank.scalars.len(), 20);
        assert!(bank.scalars.iter().all(|s| s.parts.len() == 2));
        assert!(bank.biases.iter().all(|b| b.parts.len() == 2));
    }

    #[test]
    fn weight_count_formula() {
        // 11 kernels of 3×3 -> 99 weights + 11 biases.
        assert_eq!(conv_weight_count(11, 3), 110);
        assert_eq!(conv_weight_count(26, 5), 26 * 25 + 26);
    }

    /// Every prepared operand acts on a ciphertext as its weight does, in
    /// every CRT part: `x · w` and `x + b` decrypt to `w·x mod t_i` and
    /// `x + b mod t_i`, for negative weights and for weights at the edges
    /// `±(t_i − 1)/2` of both parts' centered ranges.
    #[test]
    fn weight_bank_prepares_every_operand() {
        let moduli = [12289u64, 13313];
        let sys = CrtPlainSystem::new(256, &moduli).unwrap();
        let mut weights: Vec<i64> = (-6..6).collect();
        for &t in &moduli {
            let half = (t as i64 - 1) / 2;
            weights.extend([half, -half]);
        }
        let biases = vec![7i64, -11, 6144, -6656];
        let bank = WeightBank::prepare(&sys, &weights, &biases).unwrap();
        assert_eq!(bank.scalars.len(), weights.len());
        assert_eq!(bank.biases.len(), biases.len());

        let mut rng = ChaChaRng::from_seed(28);
        let keys = sys.generate_keys(&mut rng);
        let x = [3i64, -2, 0, 1, -7];
        let ct = sys
            .encrypt(&x, Encoding::Slots, &keys.secret, &mut rng)
            .unwrap();
        for (i, (&t, ctx)) in moduli.iter().zip(sys.contexts()).enumerate() {
            let (eval, encoder) = (sys.evaluator(i), BatchEncoder::new(ctx.params()).unwrap());
            let decryptor = Decryptor::new(ctx.clone(), &keys.secret[i]);
            let slots = |c: &Ciphertext| encoder.decode(&decryptor.decrypt(c).unwrap());
            // Unfilled slots hold 0; a bias lands in every slot.
            let expect = |f: &dyn Fn(i64) -> i64| -> Vec<u64> {
                let x = x.iter().copied().chain(std::iter::repeat(0));
                let x = x.take(sys.slot_count());
                x.map(|xv| f(xv).rem_euclid(t as i64) as u64).collect()
            };
            for (&w, s) in weights.iter().zip(&bank.scalars) {
                let prod = eval.mul_plain_scalar(ct.part(i), s.part(i)).unwrap();
                let want = expect(&|xv| w * xv);
                assert_eq!(slots(&prod), want, "weight {w}, t = {t}");
            }
            for (&b, p) in biases.iter().zip(&bank.biases) {
                let mut sum = ct.part(i).clone();
                eval.add_plain_bias_inplace(&mut sum, p.part(i)).unwrap();
                let want = expect(&|xv| xv + b);
                assert_eq!(slots(&sum), want, "bias {b}, t = {t}");
            }
        }
    }
}
