//! Homomorphic layer operations: convolution (the fully connected layer is
//! the convolution with a map-sized kernel, paper Table VI), scaled
//! mean-pool, and the square activation — with operation counting for the
//! paper's Fig. 4 analysis.
//!
//! Two linear kernels, by the form of their weights: [`he_conv2d`] multiplies
//! by plaintext scalars from a provisioned [`WeightBank`] (the per-pixel
//! layout and the orbit's conv), [`he_linear`] by evaluation-form plaintext
//! polynomials from an [`NttBank`] (the coefficient-encoded conv, the packed
//! FC layers). Each kernel schedules output cells × CRT limbs as independent
//! tasks on a [`ParExec`]; the ops draw no randomness and every limb sees
//! the same operation order, so the output is bit-identical for any pool
//! size (a pool of one runs the tasks inline on the calling thread). The
//! raw-weight [`he_conv2d_reference`] is the test and bench oracle the
//! scalar kernel is pinned against.

use crate::crt::{part_key, CrtCiphertext, CrtPlainSystem};
use crate::image::{EncryptedMap, Layout};
use crate::par::ParExec;
use crate::weights::{NttBank, NttGeometry, WeightBank};
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::prelude::{Ciphertext, EvaluationKeys, GaloisKeys};

/// Counts of homomorphic primitive operations (the paper's `C×P` / `C+C`
/// terminology in Fig. 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    /// Ciphertext × plaintext multiplications.
    pub ct_pt_mul: u64,
    /// Ciphertext + ciphertext additions.
    pub ct_ct_add: u64,
    /// Ciphertext + plaintext additions (bias terms).
    pub ct_pt_add: u64,
    /// Ciphertext × ciphertext multiplications (square activation).
    pub ct_ct_mul: u64,
    /// Relinearizations.
    pub relin: u64,
    /// Row rotations (Galois automorphisms with their key switch).
    pub rotations: u64,
    /// Per-call weight-operand preparations (centering + Shoup
    /// precomputation for a scalar, `Δ·m` embedding for a bias) performed
    /// *inside* the layer op. The [`WeightBank`]-driven kernels pay zero —
    /// all preparation happened at provisioning; the raw-weight reference
    /// oracles pay one per `C×P` and one per bias.
    pub weight_prep: u64,
}

impl OpCounter {
    /// Theoretical `C×P` / `C+C` count for one homomorphic convolution over an
    /// `s × s` map with a `k × k` kernel and stride 1 (the blue line of
    /// Fig. 4): `(s-k+1)² · k²`.
    pub fn conv_theoretical(map_side: usize, kernel: usize) -> u64 {
        let out = (map_side - kernel + 1) as u64;
        out * out * (kernel * kernel) as u64
    }
}

/// Reassembles `(cell, part)`-indexed task results (part-major within each
/// cell) into whole CRT ciphertexts.
fn assemble_cells(parts: Vec<Ciphertext>, n_cells: usize, n_parts: usize) -> Vec<CrtCiphertext> {
    debug_assert_eq!(parts.len(), n_cells * n_parts);
    let mut iter = parts.into_iter();
    (0..n_cells)
        .map(|_| CrtCiphertext {
            parts: iter.by_ref().take(n_parts).collect(),
        })
        .collect()
}

/// Output cell `cell` of [`he_conv2d`], restricted to CRT part `part`: a
/// fused multiply-accumulate chain over the kernel taps, then the prepared
/// bias.
fn conv_cell_part(
    sys: &CrtPlainSystem,
    input: &EncryptedMap,
    bank: &WeightBank,
    (rows, cols): (usize, usize),
    cell: usize,
    part: usize,
) -> Result<Ciphertext> {
    let (in_channels, h, w) = input.shape();
    let (oh, ow) = (h - rows + 1, w - cols + 1);
    let (o, oy, ox) = (cell / (oh * ow), cell % (oh * ow) / ow, cell % ow);
    let eval = sys.evaluator(part);
    let mut acc: Option<Ciphertext> = None;
    for i in 0..in_channels {
        for ky in 0..rows {
            for kx in 0..cols {
                let wgt = &bank.scalars[((o * in_channels + i) * rows + ky) * cols + kx][part];
                let x = &input.cell(i, oy + ky, ox + kx).parts[part];
                match acc.as_mut() {
                    None => acc = Some(eval.mul_plain_scalar(x, wgt)?),
                    Some(a) => eval.mul_plain_scalar_acc(a, x, wgt)?,
                }
            }
        }
    }
    let mut acc = acc.ok_or_else(|| BfvError::InvalidShape("empty tap set".into()))?;
    eval.add_plain_bias_inplace(&mut acc, &bank.biases[o][part])?;
    Ok(acc)
}

/// Homomorphic 2-D convolution (stride 1, valid padding) with a
/// `kernel = (rows, cols)` window: `bank.scalars` is
/// `weights[out][in][rows][cols]` flattened, `bank.biases` one per output
/// channel. With the map's own `(height, width)` as the kernel it is the
/// fully connected layer over the flattened map — the paper's layer 4,
/// "fully connected (as convolution)" (Table VI) — and the output is
/// `out_channels × 1 × 1`.
///
/// Each output cell is `Σ w·x + bias` computed with scalar `C×P` multiplies
/// and `C+C` additions — exactly the paper's Fig. 4 workload — as a fused
/// multiply-accumulate with no per-call weight preparation (`weight_prep`
/// stays 0); the one allocation per output cell is the output itself. Op
/// counts are tallied analytically.
///
/// # Errors
///
/// [`BfvError::InvalidShape`] for an empty tap set, a [`Layout::FcOperand`]
/// or [`Layout::Coeff`] map (those are [`he_linear`]'s), a map smaller than
/// the kernel or a bank that does not hold `out_channels · in_channels ·
/// rows · cols` scalars and `out_channels` biases,
/// [`BfvError::ContextMismatch`] for a cell of another part count; propagates
/// homomorphic-operation failures (lowest task index first).
// hesgx-lint: hot
pub fn he_conv2d(
    sys: &CrtPlainSystem,
    input: &EncryptedMap,
    bank: &WeightBank,
    out_channels: usize,
    kernel: (usize, usize),
    counter: &mut OpCounter,
    pool: &ParExec,
) -> Result<EncryptedMap> {
    let _prof = hesgx_obs::prof::span("henn.conv2d");
    sys.check_parts(input.cells())?;
    let (in_channels, h, w) = input.shape();
    let (rows, cols) = kernel;
    let taps = [in_channels, rows, cols]
        .iter()
        .try_fold(out_channels, |n, &f| n.checked_mul(f));
    if taps == Some(0)
        || matches!(
            input.layout(),
            Layout::FcOperand { .. } | Layout::Coeff { .. }
        )
        || h < rows
        || w < cols
        || taps != Some(bank.scalars.len())
        || bank.biases.len() != out_channels
    {
        return Err(BfvError::InvalidShape(format!(
            "{rows}×{cols} conv of a {in_channels}×{h}×{w} {:?} map: {} weights, {} biases, \
             {out_channels} outputs",
            input.layout(),
            bank.scalars.len(),
            bank.biases.len()
        )));
    }
    let (oh, ow) = (h - rows + 1, w - cols + 1);
    let n_cells = out_channels * oh * ow;
    let n_parts = sys.part_count();
    let parts = pool.try_run(n_cells * n_parts, |t| {
        conv_cell_part(sys, input, bank, kernel, t / n_parts, t % n_parts)
    })?;
    let muls = (in_channels * rows * cols) as u64;
    counter.ct_pt_mul += n_cells as u64 * muls;
    counter.ct_ct_add += n_cells as u64 * (muls - 1);
    counter.ct_pt_add += n_cells as u64;
    Ok(EncryptedMap::new(
        out_channels,
        oh,
        ow,
        assemble_cells(parts, n_cells, n_parts),
    ))
}

/// The linear layer of an [`NttBank`]: the convolution over a
/// [`Layout::Coeff`] map, the FC layer over a [`Layout::FcOperand`] or a
/// pooled [`Layout::Orbit`] map. Output `(r, col)` is one `dot_plain_ntt` of
/// the cells `x[i·cols + col]` against row `r`'s plaintexts, folded by
/// `rotate_and_sum` if the bank folds, plus row `r`'s bias: a task per (row,
/// column, CRT part), `rows × cols × 1` out, with `cols`, the fold and the
/// output layout [`NttBank::reads`]'.
///
/// # Errors
///
/// [`BfvError::InvalidShape`] for a map the bank does not read,
/// [`BfvError::ContextMismatch`] for a cell of another part count,
/// [`BfvError::MissingGaloisKey`] for a fold without keys; propagates
/// homomorphic-operation failures, lowest task index first.
// hesgx-lint: hot
pub fn he_linear(
    sys: &CrtPlainSystem,
    input: &EncryptedMap,
    bank: &NttBank,
    galois: &[GaloisKeys],
    counter: &mut OpCounter,
    pool: &ParExec,
) -> Result<EncryptedMap> {
    let _prof = hesgx_obs::prof::span(match bank.geometry {
        NttGeometry::Coeff { .. } => "henn.conv2d",
        _ => "henn.fc",
    });
    sys.check_parts(input.cells())?;
    let slots = sys.slot_count();
    let (cols, layout, fold) = bank.reads(input, slots)?;
    let (rows, terms, n_parts) = (bank.rows.len(), input.shape().0, sys.part_count());
    let parts = pool.try_run(rows * cols * n_parts, |t| -> Result<Ciphertext> {
        let (cell, part) = (t / n_parts, t % n_parts);
        let (row, col) = (cell / cols, cell % cols);
        let eval = sys.evaluator(part);
        let x = |i: usize| &input.cells()[i * cols + col].parts[part];
        let terms = bank.rows[row].iter().enumerate();
        let mut acc = eval.dot_plain_ntt(terms.map(|(i, w)| (x(i), &w[part])))?;
        if let Some(stride) = fold {
            let key = galois.get(part).ok_or(BfvError::MissingGaloisKey(0))?;
            acc = eval.rotate_and_sum(&acc, stride, key)?;
        }
        eval.add_plain_bias_inplace(&mut acc, &bank.bias[row][part])?;
        Ok(acc)
    })?;
    let rotations = fold.map_or(0, |stride| (slots / 2 / stride).trailing_zeros() as u64);
    let (cells, terms) = ((rows * cols) as u64, terms as u64);
    counter.ct_pt_mul += cells * terms;
    counter.ct_ct_add += cells * (terms - 1 + rotations);
    counter.ct_pt_add += cells;
    counter.rotations += cells * rotations;
    let out = assemble_cells(parts, rows * cols, n_parts);
    Ok(EncryptedMap::new(rows, cols, 1, out).with_layout(layout))
}

/// Scaled mean-pooling: the window **sum** (no division — HE cannot divide;
/// paper §III-A). Output values are `window²` times the true mean. Each
/// window accumulator owns its ciphertext (an in-place borrow would alias
/// the input map). The output keeps the input's layout (over a
/// [`Layout::Orbit`] map a window is a group's `window²` member cells).
///
/// # Errors
///
/// [`BfvError::InvalidShape`] when `window` does not divide the map sides,
/// [`BfvError::ContextMismatch`] for a cell of another part count;
/// propagates homomorphic-operation failures (lowest task index first).
// hesgx-lint: hot
pub fn he_scaled_mean_pool(
    sys: &CrtPlainSystem,
    input: &EncryptedMap,
    window: usize,
    counter: &mut OpCounter,
    pool: &ParExec,
) -> Result<EncryptedMap> {
    let _prof = hesgx_obs::prof::span("henn.pool");
    sys.check_parts(input.cells())?;
    let (c, h, w) = input.shape();
    if window == 0 || h % window != 0 || w % window != 0 {
        return Err(BfvError::InvalidShape(format!(
            "a {window}×{window} window does not tile a {c}×{h}×{w} map"
        )));
    }
    let (oh, ow) = (h / window, w / window);
    let n_cells = c * oh * ow;
    let n_parts = sys.part_count();
    let parts = pool.try_run(n_cells * n_parts, |t| -> Result<Ciphertext> {
        let (ci, part) = (t / n_parts, t % n_parts);
        let ch = ci / (oh * ow);
        let rem = ci % (oh * ow);
        let (oy, ox) = (rem / ow, rem % ow);
        let eval = sys.evaluator(part);
        let mut acc = input.cell(ch, oy * window, ox * window).parts[part].clone();
        for dy in 0..window {
            for dx in 0..window {
                if dy == 0 && dx == 0 {
                    continue;
                }
                let other = input.cell(ch, oy * window + dy, ox * window + dx);
                eval.add_inplace(&mut acc, &other.parts[part])?;
            }
        }
        Ok(acc)
    })?;
    counter.ct_ct_add += n_cells as u64 * (window * window - 1) as u64;
    let cells = assemble_cells(parts, n_cells, n_parts);
    Ok(EncryptedMap::new(c, oh, ow, cells).with_layout(input.layout()))
}

/// Square activation: slot-wise `x²` via ciphertext multiplication, followed
/// by relinearization with `evk` (the pure-HE pipeline's `EncryptSigmoid`
/// substitute, paper §VI-C). The output keeps the input's layout.
///
/// # Errors
///
/// [`BfvError::ContextMismatch`] for fewer evaluation keys than CRT parts
/// or a cell of another part count; propagates homomorphic-operation failures (lowest task index first).
// hesgx-lint: hot
pub fn he_square_activation(
    sys: &CrtPlainSystem,
    input: &EncryptedMap,
    evk: &[EvaluationKeys],
    counter: &mut OpCounter,
    pool: &ParExec,
) -> Result<EncryptedMap> {
    let _prof = hesgx_obs::prof::span("henn.square");
    sys.check_parts(input.cells())?;
    let (c, h, w) = input.shape();
    let n_cells = input.cells().len();
    let n_parts = sys.part_count();
    let parts = pool.try_run(n_cells * n_parts, |t| {
        let (ci, part) = (t / n_parts, t % n_parts);
        let eval = sys.evaluator(part);
        let key = part_key(evk, part)?;
        eval.relinearize(&eval.square(&input.cells()[ci].parts[part])?, key)
    })?;
    counter.ct_ct_mul += n_cells as u64;
    counter.relin += n_cells as u64;
    let cells = assemble_cells(parts, n_cells, n_parts);
    Ok(EncryptedMap::new(c, h, w, cells).with_layout(input.layout()))
}

/// Raw-weight oracle for [`he_conv2d`]: the textbook serial loop — one
/// whole-ciphertext scalar multiply (re-deriving the weight form) and one
/// temporary ciphertext per tap, `weights[out][in][rows][cols]` flattened,
/// integer bias per output channel. Output ciphertexts are bit-identical to
/// the kernel's; `weight_prep` counts the one-per-tap and one-per-bias
/// preparations the [`WeightBank`] removes. Tests pin the kernel against it
/// and the Fig. 4 bench times it.
///
/// # Errors
///
/// Propagates homomorphic-operation failures.
pub fn he_conv2d_reference(
    sys: &CrtPlainSystem,
    input: &EncryptedMap,
    weights: &[i64],
    bias: &[i64],
    out_channels: usize,
    (rows, cols): (usize, usize),
    counter: &mut OpCounter,
) -> Result<EncryptedMap> {
    let (in_channels, h, w) = input.shape();
    assert_eq!(
        weights.len(),
        out_channels * in_channels * rows * cols,
        "weight count mismatch"
    );
    assert_eq!(bias.len(), out_channels);
    let (oh, ow) = (h - rows + 1, w - cols + 1);
    let mut cells = Vec::with_capacity(out_channels * oh * ow);
    for o in 0..out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: Option<CrtCiphertext> = None;
                for i in 0..in_channels {
                    for ky in 0..rows {
                        for kx in 0..cols {
                            let wgt = weights[((o * in_channels + i) * rows + ky) * cols + kx];
                            let term = sys.mul_scalar(input.cell(i, oy + ky, ox + kx), wgt)?;
                            counter.ct_pt_mul += 1;
                            counter.weight_prep += 1;
                            match acc.as_mut() {
                                None => acc = Some(term),
                                Some(a) => {
                                    sys.add_inplace(a, &term)?;
                                    counter.ct_ct_add += 1;
                                }
                            }
                        }
                    }
                }
                let acc = acc.ok_or_else(|| BfvError::InvalidShape("empty tap set".into()))?;
                let acc = sys.add_scalar(&acc, bias[o])?;
                counter.ct_pt_add += 1;
                counter.weight_prep += 1;
                cells.push(acc);
            }
        }
    }
    Ok(EncryptedMap::new(out_channels, oh, ow, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt::{CrtPlainSystem, Encoding};
    use hesgx_crypto::rng::ChaChaRng;
    use hesgx_obs::Recorder;

    /// Every kernel is swept over these pool sizes; 1 is the inline path.
    const POOLS: [usize; 3] = [1, 2, 4];

    /// Every test runs on a two-part and a one-part system (the linear
    /// chooser's pick for 14 bits), so the per-part evaluator path is
    /// covered at both part counts.
    fn setups() -> Vec<(CrtPlainSystem, crate::crt::CrtKeys, ChaChaRng)> {
        let two = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let one = CrtPlainSystem::new(256, &[40961]).unwrap();
        assert_eq!((two.part_count(), one.part_count()), (2, 1));
        [two, one]
            .into_iter()
            .map(|sys| {
                let mut rng = ChaChaRng::from_seed(61);
                let keys = sys.generate_keys(&mut rng);
                (sys, keys, rng)
            })
            .collect()
    }

    fn plain_conv(
        img: &[i64],
        side: usize,
        weights: &[i64],
        bias: &[i64],
        out_channels: usize,
        k: usize,
    ) -> Vec<i64> {
        let o_side = side - k + 1;
        let mut out = vec![0i64; out_channels * o_side * o_side];
        for o in 0..out_channels {
            for oy in 0..o_side {
                for ox in 0..o_side {
                    let mut acc = bias[o];
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += weights[(o * k + ky) * k + kx] * img[(oy + ky) * side + ox + kx];
                        }
                    }
                    out[(o * o_side + oy) * o_side + ox] = acc;
                }
            }
        }
        out
    }

    /// Two 6×6 images, a 2-channel 3×3 weight set, and its biases.
    fn conv_case() -> (Vec<Vec<i64>>, Vec<i64>, Vec<i64>) {
        let images = (0..2)
            .map(|b| (0..36).map(|p| ((p * 7 + b * 3) % 16) as i64).collect())
            .collect();
        let weights = (0..2 * 9).map(|i| (i as i64 % 5) - 2).collect();
        (images, weights, vec![4i64, -3])
    }

    #[test]
    fn conv_matches_plaintext_reference() {
        for (sys, keys, rng) in setups() {
            let (side, k) = (6, 3);
            let (images, weights, bias) = conv_case();
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &images,
                side,
                Layout::Pixel,
                &keys.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            let bank = WeightBank::prepare(&sys, &weights, &bias).unwrap();
            for threads in POOLS {
                let mut counter = OpCounter::default();
                let pool = ParExec::new(threads);
                let out = he_conv2d(&sys, &enc, &bank, 2, (k, k), &mut counter, &pool).unwrap();
                assert_eq!(out.shape(), (2, 4, 4));
                assert_eq!(counter.ct_pt_mul, 2 * 16 * 9);
                let dec = out
                    .decrypt_all(&sys, &keys.secret, 2, &ParExec::serial())
                    .unwrap();
                for (b, img) in images.iter().enumerate() {
                    let expect = plain_conv(img, side, &weights, &bias, 2, k);
                    let expect: Vec<i128> = expect.iter().map(|&v| v as i128).collect();
                    assert_eq!(dec[b], expect, "batch {b}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn scaled_pool_sums_windows() {
        for (sys, keys, rng) in setups() {
            let side = 4;
            let images = vec![(1..=16i64).collect::<Vec<_>>()];
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &images,
                side,
                Layout::Pixel,
                &keys.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            // Oracle: whole-ciphertext adds in the kernel's window order.
            let mut oracle = Vec::new();
            for (oy, ox) in [(0, 0), (0, 2), (2, 0), (2, 2)] {
                let mut acc = enc.cell(0, oy, ox).clone();
                for (dy, dx) in [(0, 1), (1, 0), (1, 1)] {
                    sys.add_inplace(&mut acc, enc.cell(0, oy + dy, ox + dx))
                        .unwrap();
                }
                oracle.push(acc);
            }
            for threads in POOLS {
                let mut counter = OpCounter::default();
                let pool = ParExec::new(threads);
                let pooled = he_scaled_mean_pool(&sys, &enc, 2, &mut counter, &pool).unwrap();
                assert_eq!(pooled.shape(), (1, 2, 2));
                let dec = pooled
                    .decrypt_all(&sys, &keys.secret, 1, &ParExec::serial())
                    .unwrap();
                // windows: [1,2,5,6]=14, [3,4,7,8]=22, [9,10,13,14]=46, [11,12,15,16]=54.
                assert_eq!(dec[0], vec![14, 22, 46, 54]);
                assert_eq!(counter.ct_ct_add, 4 * 3);
                assert_eq!(pooled.cells(), oracle, "{threads} threads");
            }
        }
    }

    #[test]
    fn square_activation_squares_slots() {
        for (sys, keys, rng) in setups() {
            let images = vec![vec![3i64, -4, 0, 12]];
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &images,
                2,
                Layout::Pixel,
                &keys.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            let oracle: Vec<CrtCiphertext> = enc
                .cells()
                .iter()
                .map(|c| {
                    sys.relinearize(&sys.square(c).unwrap(), &keys.evaluation)
                        .unwrap()
                })
                .collect();
            for threads in POOLS {
                let mut counter = OpCounter::default();
                let pool = ParExec::new(threads);
                let sq = he_square_activation(&sys, &enc, &keys.evaluation, &mut counter, &pool)
                    .unwrap();
                let dec = sq
                    .decrypt_all(&sys, &keys.secret, 1, &ParExec::serial())
                    .unwrap();
                assert_eq!(dec[0], vec![9, 16, 0, 144]);
                assert_eq!(counter.ct_ct_mul, 4);
                assert_eq!(counter.relin, 4);
                assert_eq!(sq.cells(), oracle, "{threads} threads");
            }
        }
    }

    #[test]
    fn fully_connected_matches_dot_product() {
        for (sys, keys, rng) in setups() {
            let images = vec![vec![1i64, 2, 3, 4]];
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &images,
                2,
                Layout::Pixel,
                &keys.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            let weights = vec![1i64, -1, 2, 0, /* row 2 */ 3, 3, -3, 1];
            let bank = WeightBank::prepare(&sys, &weights, &[10, -10]).unwrap();
            for threads in POOLS {
                let mut counter = OpCounter::default();
                let pool = ParExec::new(threads);
                let out = he_conv2d(&sys, &enc, &bank, 2, (2, 2), &mut counter, &pool).unwrap();
                assert_eq!(out.shape(), (2, 1, 1));
                let logits: Vec<i128> = out
                    .cells()
                    .iter()
                    .map(|ct| sys.decrypt(ct, Encoding::Slots, &keys.secret).unwrap()[0])
                    .collect();
                assert_eq!(logits, vec![(1 - 2 + 6) + 10, 4 - 10], "{threads} threads");
            }
        }
    }

    /// The kernel against its raw-weight oracle over every geometry a plan
    /// calls it with: the square single-channel convolution, a non-square
    /// window over two channels, and the map-sized kernel that is the FC layer
    /// — square and not.
    #[test]
    fn cached_conv_is_bit_identical_with_zero_weight_prep() {
        for (sys, keys, mut rng) in setups() {
            for (shape, out, kernel) in [
                ((1, 6, 6), 2, (3, 3)),
                ((2, 4, 5), 3, (2, 3)),
                ((2, 4, 4), 3, (4, 4)),
                ((2, 3, 5), 2, (3, 5)),
            ] {
                let (c, h, w) = shape;
                let cells = (0..c * h * w)
                    .map(|p| {
                        let slots = [(p * 7 % 16) as i64, (p * 5 % 16) as i64];
                        sys.encrypt(&slots, Encoding::Slots, &keys.public, &mut rng)
                            .unwrap()
                    })
                    .collect();
                let enc = EncryptedMap::new(c, h, w, cells);
                let (oh, ow) = (h - kernel.0 + 1, w - kernel.1 + 1);
                let taps = c * kernel.0 * kernel.1;
                let weights: Vec<i64> = (0..out * taps).map(|i| (i as i64 % 5) - 2).collect();
                let bias: Vec<i64> = (0..out).map(|o| 4 - 3 * o as i64).collect();
                let mut oracle = OpCounter::default();
                let base =
                    he_conv2d_reference(&sys, &enc, &weights, &bias, out, kernel, &mut oracle)
                        .unwrap();
                assert_eq!(base.shape(), (out, oh, ow));
                // The oracle's per-call weight preparation: one per tap and
                // one per bias of every output cell.
                assert_eq!(oracle.weight_prep as usize, out * oh * ow * (taps + 1));
                let bank = WeightBank::prepare(&sys, &weights, &bias).unwrap();
                for threads in POOLS {
                    let pool = ParExec::new(threads);
                    let mut counter = OpCounter::default();
                    let fast =
                        he_conv2d(&sys, &enc, &bank, out, kernel, &mut counter, &pool).unwrap();
                    assert_eq!(fast.shape(), base.shape());
                    // Ciphertext-level bit-identity, not just equal decryptions.
                    assert_eq!(fast.cells(), base.cells(), "{shape:?}, {threads} threads");
                    // Same homomorphic work, zero per-call weight preparation.
                    let prepared = OpCounter {
                        weight_prep: 0,
                        ..oracle
                    };
                    assert_eq!(counter, prepared, "{shape:?}, {threads} threads");
                }
            }
        }
    }

    /// A `Coeff` input is one cell an image, and the convolution over it one
    /// kernel-polynomial product per (output channel, image) from the same
    /// weights: decrypted, its output equals the raw-weight oracle's on the
    /// `Pixel` map of the same images, cell for cell, at every batch and pool
    /// size — and the scalar kernel refuses it.
    #[test]
    fn packed_conv_is_the_pixel_conv_cell_for_cell() {
        for (sys, keys, rng) in setups() {
            let (side, k) = (6, 3);
            let (_, weights, bias) = conv_case();
            let scalars = WeightBank::prepare(&sys, &weights, &bias).unwrap();
            let bank = NttBank::conv(&sys, &weights, &bias, k, side).unwrap();
            let serial = ParExec::serial();
            for batch in [1, 2, 17] {
                let images: Vec<Vec<i64>> = (0..batch)
                    .map(|b| (0..36).map(|p| ((p * 7 + b * 3) % 16) as i64).collect())
                    .collect();
                let encrypt = |layout| {
                    let public = &keys.public;
                    EncryptedMap::encrypt_images(&sys, &images, side, layout, public, &rng, &serial)
                        .unwrap()
                };
                let mut oracle_ops = OpCounter::default();
                let pixel = encrypt(Layout::Pixel);
                let oracle =
                    he_conv2d_reference(&sys, &pixel, &weights, &bias, 2, (k, k), &mut oracle_ops)
                        .unwrap()
                        .decrypt_all(&sys, &keys.secret, batch, &serial)
                        .unwrap();
                let layout = Layout::for_conv(side, batch, sys.slot_count());
                let packed = encrypt(layout);
                assert_eq!(packed.shape(), (1, batch, 1), "batch {batch}");
                let mut bits = None;
                for threads in POOLS {
                    let mut counter = OpCounter::default();
                    let pool = ParExec::new(threads);
                    let out = he_linear(&sys, &packed, &bank, &[], &mut counter, &pool).unwrap();
                    let shrunk = Layout::Coeff {
                        batch,
                        side: 4,
                        pitch: 6,
                    };
                    assert_eq!((out.shape(), out.layout()), ((2, batch, 1), shrunk));
                    // One product per (output channel, image), not per tap.
                    let ops = OpCounter {
                        ct_pt_mul: 2 * batch as u64,
                        ct_pt_add: 2 * batch as u64,
                        ..OpCounter::default()
                    };
                    assert_eq!(counter, ops);
                    let dec = out.decrypt_all(&sys, &keys.secret, batch, &serial).unwrap();
                    assert_eq!(dec, oracle, "batch {batch}, {threads} threads");
                    let cells = out.cells().to_vec();
                    assert_eq!(
                        *bits.get_or_insert(cells.clone()),
                        cells,
                        "{threads} threads"
                    );
                }
                let mut counter = OpCounter::default();
                let refused = he_conv2d(&sys, &packed, &scalars, 2, (k, k), &mut counter, &serial);
                assert!(matches!(refused, Err(BfvError::InvalidShape(_))));
                assert_eq!(counter, OpCounter::default());
            }
        }
    }

    /// One refusal table for [`he_linear`]: each bank paired with every map
    /// of the table reads exactly the maps of its own geometry, and
    /// refuses the rest — another layout or `Pixel`; a `Coeff` map of
    /// another pitch, narrower than the kernel or with a squared cell; an
    /// operand map of another `P` or input count, or the layer's own
    /// partial sums; an orbit of another side or not pooled — with
    /// [`BfvError::InvalidShape`], before a task is scheduled or an op
    /// counted.
    #[test]
    fn every_bank_refuses_the_maps_it_does_not_read() {
        for (sys, keys, mut rng) in setups() {
            let slots = sys.slot_count();
            let cell = sys.encrypt(&[3, -1, 4], Encoding::Slots, &keys.secret, &mut rng);
            let cell = cell.unwrap();
            let map = |layout: Layout, (c, h, w): (usize, usize, usize)| {
                EncryptedMap::new(c, h, w, vec![cell.clone(); c * h * w]).with_layout(layout)
            };
            let coeff = |side, pitch| Layout::Coeff {
                batch: 2,
                side,
                pitch,
            };
            let operand = |classes, batch, inputs| Layout::FcOperand {
                classes,
                batch,
                inputs,
            };
            let orbit = |side, window| Layout::Orbit {
                batch: 3,
                side,
                window,
            };
            let mut squared = map(coeff(6, 6), (1, 2, 1)).into_cells();
            squared[1] = sys.square(&squared[1]).unwrap();
            let maps = [
                map(Layout::Pixel, (1, 6, 6)),
                map(coeff(6, 6), (1, 2, 1)),
                map(coeff(6, 7), (1, 2, 1)),
                map(coeff(2, 6), (1, 2, 1)),
                EncryptedMap::new(1, 2, 1, squared).with_layout(coeff(6, 6)),
                map(operand(1, 37, 7), (2, 1, 1)),
                map(operand(1, 100, 7), (4, 1, 1)),
                map(operand(1, 37, 8), (2, 1, 1)),
                map(operand(20, 37, 6), (20, 1, 1)),
                map(orbit(3, 1), (2, 1, 1)),
                map(orbit(2, 1), (2, 1, 1)),
                map(orbit(3, 2), (2, 2, 2)),
            ];
            let weights = |n: usize| -> Vec<i64> { (0..n).map(|i| (i % 5) as i64 - 2).collect() };
            let bias = |n: usize| -> Vec<i64> { (0..n).map(|i| i as i64 - 1).collect() };
            // Each bank and the one map of the table it reads.
            let banks = [
                (NttBank::conv(&sys, &weights(18), &bias(2), 3, 6), 1),
                (NttBank::fc_operand(&sys, &weights(140), &bias(20), 6), 5),
                (NttBank::fc_orbit(&sys, &weights(54), &bias(3), 3), 9),
            ];
            let recorder = Recorder::enabled();
            let pool = ParExec::serial().with_recorder(recorder.clone());
            let tasks = || recorder.counter(hesgx_obs::counters::PAR_TASKS);
            for (bank, own) in banks {
                let bank = bank.unwrap();
                for (i, map) in maps.iter().enumerate() {
                    let geometry = bank.geometry;
                    assert_eq!(
                        bank.reads(map, slots).is_ok(),
                        i == own,
                        "{geometry:?}, map {i}"
                    );
                    let (before, mut counter) = (tasks(), OpCounter::default());
                    let out = he_linear(&sys, map, &bank, &keys.galois, &mut counter, &pool);
                    if i == own {
                        // Scheduled (the orbit's fold then finds no Galois keys).
                        assert!(tasks() > before, "{geometry:?}");
                        continue;
                    }
                    assert!(matches!(out, Err(BfvError::InvalidShape(_))), "map {i}");
                    assert_eq!((counter, tasks()), (OpCounter::default(), before));
                }
            }
        }
    }

    /// A map holding one cell of fewer CRT parts than the system — a
    /// one-part encryption among two-part cells — is `ContextMismatch`
    /// from every layer kernel, before an op is counted, at every pool size.
    #[test]
    fn every_kernel_refuses_a_cell_of_another_part_count() {
        let (sys, keys, mut rng) = setups().swap_remove(0);
        let one = CrtPlainSystem::new(256, &sys.moduli()[..1]).unwrap();
        let short = one.encrypt(&[5, -2], Encoding::Coeffs, &keys.secret[..1], &mut rng);
        let short = short.unwrap();
        let cell = sys.encrypt(&[5, -2], Encoding::Coeffs, &keys.secret, &mut rng);
        let cell = cell.unwrap();
        let map = |layout: Layout, (c, h, w): (usize, usize, usize)| {
            let mut cells = vec![cell.clone(); c * h * w];
            cells[c * h * w - 1] = short.clone();
            EncryptedMap::new(c, h, w, cells).with_layout(layout)
        };
        let coeff = Layout::Coeff {
            batch: 2,
            side: 6,
            pitch: 6,
        };
        let (_, weights, bias) = conv_case();
        let scalars = WeightBank::prepare(&sys, &weights, &bias).unwrap();
        let bank = NttBank::conv(&sys, &weights, &bias, 3, 6).unwrap();
        for threads in POOLS {
            let pool = ParExec::new(threads);
            let mut counter = OpCounter::default();
            let pixel = map(Layout::Pixel, (1, 6, 6));
            let runs = [
                he_conv2d(&sys, &pixel, &scalars, 2, (3, 3), &mut counter, &pool),
                he_linear(
                    &sys,
                    &map(coeff, (1, 2, 1)),
                    &bank,
                    &[],
                    &mut counter,
                    &pool,
                ),
                he_scaled_mean_pool(&sys, &pixel, 2, &mut counter, &pool),
                he_square_activation(&sys, &pixel, &keys.evaluation, &mut counter, &pool),
            ];
            for (kernel, run) in runs.into_iter().enumerate() {
                assert!(
                    matches!(run, Err(BfvError::ContextMismatch)),
                    "kernel {kernel}"
                );
            }
            assert_eq!(counter, OpCounter::default());
        }
    }

    /// The operand-layout FC against the raw-weight oracle on the same
    /// plaintext inputs: seven inputs of 37 images for twenty classes, six
    /// slots an image (`⌊256/37⌋`), so two operand cells, the second holding
    /// one input. Slot for slot, class `k`'s output cell holds the oracle's
    /// dot product split into the six partial sums its slot map places —
    /// the bias in the first of every image block — and zero everywhere
    /// else; the bits do not depend on the pool size.
    #[test]
    fn fc_operand_kernel_is_the_reference_slot_for_slot() {
        for (sys, keys, mut rng) in setups() {
            let (classes, batch, inputs, per) = (20usize, 37usize, 7usize, 6usize);
            let x = |image: usize, input: usize| ((input * 5 + image * 3) % 16) as i64;
            let weights: Vec<i64> = (0..classes * inputs).map(|i| (i % 5) as i64 - 2).collect();
            let bias: Vec<i64> = (0..classes).map(|c| (c % 9) as i64 - 4).collect();
            let images: Vec<Vec<i64>> = (0..batch)
                .map(|b| (0..inputs).map(|j| x(b, j)).collect())
                .collect();
            // The oracle over one cell per input, image `b` in slot `b`.
            let serial = ParExec::serial();
            let pixel: Vec<CrtCiphertext> = (0..inputs)
                .map(|j| {
                    let column: Vec<i64> = images.iter().map(|img| img[j]).collect();
                    sys.encrypt(&column, Encoding::Slots, &keys.public, &mut rng)
                        .unwrap()
                })
                .collect();
            let pixel = EncryptedMap::new(inputs, 1, 1, pixel);
            let mut oracle_ops = OpCounter::default();
            let fc = (1, 1);
            let oracle =
                he_conv2d_reference(&sys, &pixel, &weights, &bias, classes, fc, &mut oracle_ops)
                    .unwrap()
                    .decrypt_all(&sys, &keys.secret, batch, &serial)
                    .unwrap();
            // The same inputs in the operand layout, each once.
            let layout = Layout::FcOperand {
                classes: 1,
                batch,
                inputs,
            };
            assert_eq!(layout.fc_geometry(256), Some((per, 2)));
            let rule = layout.slot_map((2, 1, 1), 256).unwrap();
            let cells: Vec<CrtCiphertext> = (rule.encode(batch, |_, j, image| x(image, j)))
                .unwrap()
                .iter()
                .map(|slots| {
                    sys.encrypt(slots, Encoding::Slots, &keys.public, &mut rng)
                        .unwrap()
                })
                .collect();
            let packed = EncryptedMap::new(cells.len(), 1, 1, cells).with_layout(layout);
            let bank = NttBank::fc_operand(&sys, &weights, &bias, per).unwrap();
            assert_eq!(bank.rows.len(), classes);
            assert!(bank.rows.iter().all(|row| row.len() == 2));
            let sums = Layout::FcOperand {
                classes,
                batch,
                inputs: per,
            };
            let partial = sums.slot_map((classes, 1, 1), 256).unwrap();
            // The bank writes the bias into every block a cell has: 42 of six.
            let blocks = 256 / per * per;
            let first = |b: i64, s: usize| match s.is_multiple_of(per) && s < blocks {
                true => b.into(),
                false => 0,
            };
            let row = |&b: &i64| (0..256).map(|s| first(b, s)).collect();
            let mut want: Vec<Vec<i128>> = bias.iter().map(row).collect();
            for (class, j) in (0..classes * per).map(|i| (i / per, i % per)) {
                for image in 0..batch {
                    let taps = (j..inputs).step_by(per);
                    let dot: i64 = taps
                        .map(|i| weights[class * inputs + i] * x(image, i))
                        .sum();
                    let sum = dot + if j == 0 { bias[class] } else { 0 };
                    let (cell, slot) = partial.place(class, j, image).unwrap();
                    assert_eq!((cell, slot), (class, image * per + j));
                    want[cell][slot] = sum.into();
                }
            }
            let mut bits = None;
            for threads in POOLS {
                let mut counter = OpCounter::default();
                let pool = ParExec::new(threads);
                let out = he_linear(&sys, &packed, &bank, &[], &mut counter, &pool).unwrap();
                assert_eq!((out.shape(), out.layout()), ((classes, 1, 1), sums));
                for (class, cell) in out.cells().iter().enumerate() {
                    let slots = sys.decrypt(cell, Encoding::Slots, &keys.secret).unwrap();
                    assert_eq!(slots, want[class], "{threads} threads, class {class}");
                }
                // Summed per (class, image), the partial sums are the logits.
                let rows = out.decrypt_all(&sys, &keys.secret, batch, &serial).unwrap();
                for (row, logits) in rows.iter().zip(&oracle) {
                    let reduced: Vec<i128> =
                        row.chunks(per).map(|sums| sums.iter().sum()).collect();
                    assert_eq!(&reduced, logits, "{threads} threads");
                }
                // Two products a class, not seven.
                let ops = OpCounter {
                    ct_pt_mul: 40,
                    ct_ct_add: 20,
                    ct_pt_add: 20,
                    ..OpCounter::default()
                };
                assert_eq!(counter, ops);
                assert_eq!(oracle_ops.ct_pt_mul, 140);
                let cells = out.into_cells();
                assert_eq!(
                    *bits.get_or_insert(cells.clone()),
                    cells,
                    "{threads} threads"
                );
            }
            // The scalar kernel refuses an operand map, no taps, and 3 of 7
            // weight columns.
            let refused = |result: Result<EncryptedMap>| {
                assert!(matches!(result, Err(BfvError::InvalidShape(_))));
            };
            let mut counter = OpCounter::default();
            let scalar = WeightBank::prepare(&sys, &weights[..classes * 3], &bias).unwrap();
            let empty = EncryptedMap::new(0, 1, 1, Vec::new());
            for map in [&packed, &empty, &pixel] {
                refused(he_conv2d(
                    &sys,
                    map,
                    &scalar,
                    classes,
                    fc,
                    &mut counter,
                    &serial,
                ));
            }
            assert_eq!(counter, OpCounter::default());
            // No batch leaves 100 slots an image (`⌊256/⌊256/100⌋⌋ = 128`),
            // none or more than the slots; ragged rows.
            for (weights, per) in [
                (&weights[..], 100),
                (&weights[..], 0),
                (&weights[..], 257),
                (&weights[1..], 3),
            ] {
                let bank = NttBank::fc_operand(&sys, weights, &bias, per);
                assert!(
                    matches!(bank, Err(BfvError::InvalidShape(_))),
                    "{per} a cell"
                );
            }
        }
    }

    #[test]
    fn cached_fc_is_bit_identical_with_zero_weight_prep() {
        for (sys, keys, rng) in setups() {
            let images = vec![vec![1i64, 2, 3, 4]];
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &images,
                2,
                Layout::Pixel,
                &keys.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            let weights = vec![1i64, -1, 2, 0, /* row 2 */ 3, 3, -3, 1];
            let bias = vec![10, -10];
            let mut oracle = OpCounter::default();
            let base =
                he_conv2d_reference(&sys, &enc, &weights, &bias, 2, (2, 2), &mut oracle).unwrap();
            assert_eq!(oracle.weight_prep, 2 * 4 + 2);
            let bank = WeightBank::prepare(&sys, &weights, &bias).unwrap();
            for threads in POOLS {
                let pool = ParExec::new(threads);
                let mut counter = OpCounter::default();
                let fast = he_conv2d(&sys, &enc, &bank, 2, (2, 2), &mut counter, &pool).unwrap();
                assert_eq!(fast.shape(), (2, 1, 1));
                assert_eq!(fast.cells(), base.cells(), "{threads} threads");
                assert_eq!(
                    counter,
                    OpCounter {
                        weight_prep: 0,
                        ..oracle
                    },
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn fig4_theoretical_op_counts() {
        // Symmetric around k = 14/15 for a 28×28 map, max 44100 (paper Fig. 4).
        assert_eq!(OpCounter::conv_theoretical(28, 14), 44_100);
        assert_eq!(OpCounter::conv_theoretical(28, 15), 44_100);
        assert_eq!(
            OpCounter::conv_theoretical(28, 1),
            OpCounter::conv_theoretical(28, 28)
        );
        assert_eq!(OpCounter::conv_theoretical(28, 1), 784);
        // Symmetry k ↔ 29-k.
        for k in 1..=28 {
            assert_eq!(
                OpCounter::conv_theoretical(28, k),
                OpCounter::conv_theoretical(28, 29 - k)
            );
        }
    }
}
