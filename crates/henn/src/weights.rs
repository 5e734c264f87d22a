//! Model-weight encoding into the homomorphic plaintext space — the
//! preliminary step the edge server performs once per model (paper §IV-B) and
//! the workload of Fig. 3 ("the encoding time has a linear relationship with
//! the weights' number"). This module is the one place a model weight becomes
//! a plaintext operand. A [`WeightBank`] holds slot-wise scalars with their
//! Shoup constants and biases as `Δ·b` residues; an [`NttBank`] holds
//! evaluation-form plaintexts — the kernel polynomials of a
//! coefficient-encoded convolution or the batch-encoded cells of a packed FC
//! layer, laid out by the [`SlotMap`](crate::image::SlotMap) of the map they
//! multiply — and decides which maps it reads ([`NttBank::reads`]).

use crate::crt::{CrtCiphertext, CrtPlainSystem, Encoding};
use crate::image::{orbit_stride, EncryptedMap, Layout};
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::evaluator::{PlainScalar, PreparedBias};
use hesgx_bfv::plaintext::NttPlaintext;

/// All prepared operands of one linear layer (conv or FC): scalar weights
/// with their per-limb Shoup constants and biases with their `Δ·c` residues,
/// computed once at provisioning. The conv/FC kernels in [`crate::ops`]
/// consume a bank instead of raw integers, so no request ever re-derives a
/// weight form.
#[derive(Debug, Clone)]
pub struct WeightBank {
    /// `[weight][part]` prepared multiply operands, in the layer's
    /// flattened weight order.
    pub scalars: Vec<Vec<PlainScalar>>,
    /// `[bias][part]` prepared bias operands, one per output channel /
    /// neuron.
    pub biases: Vec<Vec<PreparedBias>>,
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
                .map(|&b| sys.prepare_bias(&[b], Encoding::Coeffs))
                .collect::<Result<_>>()?,
        })
    }
}

/// What an [`NttBank`]'s plaintexts were encoded for: the kind of map it
/// reads and that map's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NttGeometry {
    /// A stride-1 convolution over [`Layout::Coeff`] maps.
    Coeff {
        /// Side of the square kernel.
        side: usize,
        /// Row pitch of the maps the kernels convolve.
        pitch: usize,
    },
    /// The FC layer over one-class [`Layout::FcOperand`] maps.
    FcOperand {
        /// Inputs of the layer.
        inputs: usize,
        /// Slots an image (`P`).
        per_image: usize,
    },
    /// The FC layer over pooled [`Layout::Orbit`] maps.
    Orbit {
        /// Side of the pooled map.
        side: usize,
    },
}

/// The operands of a linear layer whose weights are plaintext polynomials in
/// evaluation form: output row `r` at column `col` is
/// `Σᵢ x[i·cols + col] · rows[r][i] + bias[r]` ([`crate::ops::he_linear`]),
/// `cols` and the output layout being the map's ([`NttBank::reads`]).
#[derive(Debug)]
pub struct NttBank {
    /// What the plaintexts were encoded for.
    pub(crate) geometry: NttGeometry,
    /// `[row][term][part]` weight plaintexts, as many terms every row.
    pub(crate) rows: Vec<Vec<Vec<NttPlaintext>>>,
    /// `[row][part]` bias addends.
    pub(crate) bias: Vec<Vec<PreparedBias>>,
}

impl NttBank {
    /// The convolution `weights[out][in][side][side]` over `Coeff` maps of
    /// pitch `pitch`: per (output, input) channel the kernel polynomial
    /// `K(X) = Σ w[dy][dx]·X^-(dy·pitch + dx)` mod `Xⁿ + 1`, so that
    /// coefficient `y·pitch + x` of `x·K` is the window sum at `(y, x)`, and
    /// per output channel its bias at every coefficient.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when the weights are not whole kernels per
    /// bias or a kernel's taps would wrap (`(side − 1)·(pitch + 1) ≥ n`);
    /// fails when a weight exceeds a plaintext modulus.
    pub fn conv(
        sys: &CrtPlainSystem,
        weights: &[i64],
        biases: &[i64],
        side: usize,
        pitch: usize,
    ) -> Result<NttBank> {
        let n = sys.slot_count();
        let taps = biases.len().saturating_mul(side).saturating_mul(side);
        let reach = (side.saturating_sub(1)).saturating_mul(pitch.saturating_add(1));
        let whole = taps > 0 && weights.len() >= taps && weights.len().is_multiple_of(taps);
        if !whole || reach >= n || side > pitch {
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
        let bias = |&b: &i64| sys.prepare_bias(&vec![b; n], Encoding::Coeffs);
        Ok(NttBank {
            geometry: NttGeometry::Coeff { side, pitch },
            rows: ntt_rows(sys, &kernels, weights.len() / taps, Encoding::Coeffs)?,
            bias: biases.iter().map(bias).collect::<Result<_>>()?,
        })
    }

    /// The fully connected layer `weights[class][input]` over one-class
    /// operand cells of `per_image` slots an image (`P`), `⌊slots / P⌋`
    /// images a cell: per (class, cell), the weights where the
    /// [`SlotMap`](crate::image::SlotMap) puts `(0, input, image)`, and per
    /// class the bias at partial sum 0, both written into every `P`-slot
    /// block a cell has — so a bank depends on the model and `P` alone,
    /// never on the batch.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when the weights are not one row per bias
    /// or no batch leaves `per_image` slots an image.
    pub fn fc_operand(
        sys: &CrtPlainSystem,
        weights: &[i64],
        biases: &[i64],
        per_image: usize,
    ) -> Result<NttBank> {
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
        let row = |class: usize| rule.encode(batch, |_, input, _| weights[class * inputs + input]);
        let cells = (0..classes).map(row).collect::<Result<Vec<_>>>()?.concat();
        // A class's bias where the first cell holds input 0, partial sum 0.
        let bias = |&b: &i64| {
            let first = rule.encode(batch, |_, input, _| if input == 0 { b } else { 0 })?;
            sys.prepare_bias(&first[0], Encoding::Slots)
        };
        Ok(NttBank {
            geometry: NttGeometry::FcOperand { inputs, per_image },
            rows: ntt_rows(sys, &cells, cells.len() / classes, Encoding::Slots)?,
            bias: biases.iter().map(bias).collect::<Result<_>>()?,
        })
    }

    /// The fully connected layer `weights[class][channel][position]` over a
    /// pooled [`Layout::Orbit`] map of side `side` (`window: 1`): per (class,
    /// channel), the weights where the map's
    /// [`SlotMap`](crate::image::SlotMap) puts every image of a group (zero
    /// at the orbit's padding positions), and per class a constant bias — the
    /// model's and `n`'s alone, never the batch's.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] when the weights are not whole
    /// `channels × side²` rows per bias or the orbit has no stride; fails
    /// when a weight exceeds a plaintext modulus.
    pub fn fc_orbit(
        sys: &CrtPlainSystem,
        weights: &[i64],
        biases: &[i64],
        side: usize,
    ) -> Result<NttBank> {
        let (slots, positions) = (sys.slot_count(), side * side);
        let row = biases.len().saturating_mul(positions);
        let fits = row > 0 && weights.len() >= row && weights.len().is_multiple_of(row);
        let Some(stride) = orbit_stride(side, slots).filter(|_| fits) else {
            let claim = format!("{} weights, side {side}", weights.len());
            return Err(BfvError::InvalidShape(claim));
        };
        let layout = Layout::Orbit {
            batch: 2 * stride,
            side,
            window: 1,
        };
        let rule = layout.slot_map((weights.len() / positions, 1, 1), slots)?;
        let weight = |row, position, _| weights[row * positions + position];
        let cells = rule.encode(2 * stride, weight)?;
        let bias = |&b: &i64| sys.prepare_bias(&[b], Encoding::Coeffs);
        Ok(NttBank {
            geometry: NttGeometry::Orbit { side },
            rows: ntt_rows(sys, &cells, weights.len() / row, Encoding::Slots)?,
            bias: biases.iter().map(bias).collect::<Result<_>>()?,
        })
    }

    /// How the bank reads `input`, the one place that decides whether it
    /// does: `(cols, layout, fold)` — the map's cells are `x[term·cols +
    /// col]`, the output is `rows × cols × 1` in `layout`, and each output
    /// cell is folded over the orbit of stride `fold` if there is one. A
    /// `Coeff` map is ingress, so every cell must be fresh (two components
    /// in one form): a host-relabelled one is refused, not transformed into
    /// a wrong product.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for a map of another kind or geometry than
    /// the bank's, or one whose cells its layout does not hold.
    pub fn reads(
        &self,
        input: &EncryptedMap,
        slots: usize,
    ) -> Result<(usize, Layout, Option<usize>)> {
        let (layout, shape @ (terms, height, width)) = (input.layout(), input.shape());
        let (classes, values, _) = layout.slot_map(shape, slots)?.extent();
        let fresh =
            |ct: &CrtCiphertext| ct.parts.iter().all(|p| p.size() == 2 && p.form().is_some());
        let per = layout.fc_geometry(slots).map(|(per, _)| per);
        let read = match (self.geometry, layout) {
            (NttGeometry::Coeff { side: k, pitch }, Layout::Coeff { batch, side, .. })
                if layout == Layout::Coeff { batch, side, pitch }
                    && k <= side
                    && input.cells().iter().all(fresh) =>
            {
                let side = side + 1 - k;
                Some((batch, Layout::Coeff { batch, side, pitch }))
            }
            (NttGeometry::FcOperand { inputs, per_image }, Layout::FcOperand { batch, .. })
                if (classes, values, per) == (1, inputs, Some(per_image)) =>
            {
                let (classes, inputs) = (self.rows.len(), per_image);
                let sums = Layout::FcOperand {
                    classes,
                    batch,
                    inputs,
                };
                Some((1, sums))
            }
            (NttGeometry::Orbit { side }, Layout::Orbit { side: s, .. }) => {
                ((s, width) == (side, 1)).then_some((height, layout))
            }
            _ => None,
        };
        let fold = layout.orbit_geometry(slots).map(|(stride, _)| stride);
        match read.filter(|_| self.rows.first().map(Vec::len) == Some(terms)) {
            Some((cols, out)) => Ok((cols, out, fold)),
            None => Err(BfvError::InvalidShape(format!(
                "{terms}×{height}×{width} {layout:?} into {:?}",
                self.geometry
            ))),
        }
    }
}

/// `cells` encoded as `encoding` says, in evaluation form, `terms` a row:
/// `[row][term][part]`.
fn ntt_rows(
    sys: &CrtPlainSystem,
    cells: &[Vec<i64>],
    terms: usize,
    encoding: Encoding,
) -> Result<Vec<Vec<Vec<NttPlaintext>>>> {
    let cell = |values: &Vec<i64>| -> Result<Vec<_>> {
        let plain = sys.encode(values, encoding)?.into_iter().enumerate();
        plain
            .map(|(part, p)| sys.evaluator(part).transform_plain_to_ntt(&p))
            .collect()
    };
    let row = |row: &[Vec<i64>]| row.iter().map(cell).collect();
    cells.chunks(terms).map(row).collect()
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
        assert!(bank.scalars.iter().all(|s| s.len() == 2));
        assert!(bank.biases.iter().all(|b| b.len() == 2));
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
                let prod = eval.mul_plain_scalar(ct.part(i), &s[i]).unwrap();
                let want = expect(&|xv| w * xv);
                assert_eq!(slots(&prod), want, "weight {w}, t = {t}");
            }
            for (&b, p) in biases.iter().zip(&bank.biases) {
                let mut sum = ct.part(i).clone();
                eval.add_plain_bias_inplace(&mut sum, &p[i]).unwrap();
                let want = expect(&|xv| xv + b);
                assert_eq!(slots(&sum), want, "bias {b}, t = {t}");
            }
        }
    }
}
