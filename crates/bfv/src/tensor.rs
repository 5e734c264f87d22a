//! The extension basis `P'` of ciphertext multiplication and the two exact
//! base conversions around the tensor product (derivation: DESIGN.md §19).
//!
//! The tensor `d = Σ aᵢ·bⱼ` of centered operands is an integer polynomial far
//! wider than `q`; its residues modulo the limbs of `Q` and of a few extra
//! NTT primes `P'` are all [`crate::evaluator::Evaluator::multiply`] ever
//! holds of it. With `h = ⌊q/2⌋` the wanted `s = round(t·d/q)` satisfies
//! `t·d + h = q·s + ρ`, `ρ = [t·d + h]_q`, so `s ≡ (t·d + h − ρ)·q⁻¹` modulo
//! every prime of `P'` — and `ρ` is known exactly from the `Q` residues. `P'`
//! is sized so that `|s| < P'/4`, which makes the way back `P' → Q` exact as
//! well. Every step is 64/128-bit integer arithmetic.

use crate::arith::{
    add_mod, inv_mod, mul_mod, mul_mod_shoup, primes_congruent_one_below, shoup_precompute,
    sub_mod, BarrettU128, MAX_LIMB_BITS,
};
use crate::context::CrtLimb;
use crate::ntt::NttTable;
use crate::params::{EncryptionParameters, ParameterError};

/// Most integer products `aᵢ·bⱼ` one tensor component may sum; `P'` is sized
/// for it. Every size the wire format carries (up to 8 polynomials) multiplies.
pub(crate) const MAX_TENSOR_TERMS: usize = 8;

/// Most limbs of `Q`, and most primes of `P'`: a dot product of that many
/// terms below `2^124`, one more and a residue must fit `u128`.
const MAX_DOT_LIMBS: usize = 14;

/// One limb `qᵢ` of `Q` in [`TensorBasis::scale_round`].
#[derive(Debug)]
struct QLimb {
    qi: u64,
    barrett: BarrettU128,
    /// `q/qᵢ`.
    hat: u128,
    /// `t·(q/qᵢ)⁻¹ mod qᵢ`, a Shoup pair.
    t_hat_inv: (u64, u64),
    /// `h·(q/qᵢ)⁻¹ mod qᵢ`.
    h_hat_inv: u64,
    /// `(P'/pⱼ) mod qᵢ` per prime `pⱼ` of `P'`.
    p_hat: Vec<u64>,
    /// `−v·P' mod qᵢ` for every overflow count `v ∈ 0..=|P'|`.
    neg_p: Vec<u64>,
}

/// One prime `pⱼ` of `P'`. The scaling constants carry the factor
/// `wⱼ = (q·P'/pⱼ)⁻¹ mod pⱼ`, so one dot product yields the CRT coefficient
/// `zⱼ = [s·(P'/pⱼ)⁻¹]_{pⱼ}` of `s` directly.
#[derive(Debug)]
struct PLimb {
    table: NttTable,
    /// `q mod pⱼ`.
    q_mod: u64,
    /// `t·wⱼ mod pⱼ`.
    t_w: u64,
    /// `−(q/qᵢ)·wⱼ mod pⱼ` per limb `qᵢ` of `Q`.
    neg_hat_w: Vec<u64>,
    /// `(h + u·q)·wⱼ mod pⱼ` for every overflow count `u ∈ 0..|Q|`.
    h_w: Vec<u64>,
}

/// The extension basis and its conversion constants.
#[derive(Debug)]
pub(crate) struct TensorBasis {
    q: u128,
    q_limbs: Vec<QLimb>,
    p_limbs: Vec<PLimb>,
}

/// `Π factors mod m`.
fn product_mod(factors: impl Iterator<Item = u64>, m: u64) -> u64 {
    factors.fold(1, |acc, f| mul_mod(acc, f % m, m))
}

impl TensorBasis {
    /// Picks the largest NTT primes that are neither a limb of `q` nor `t`
    /// until `P' ≥ 2^bits(MAX_TENSOR_TERMS·n·t·q) > 4·|s|`, then derives the
    /// constants.
    ///
    /// # Errors
    ///
    /// [`ParameterError::CoeffModulusTooLarge`] when no such basis exists
    /// within the `u128` accumulators.
    pub(crate) fn new(
        params: &EncryptionParameters,
        q: u128,
        crt: &[CrtLimb],
    ) -> Result<Self, ParameterError> {
        let (n, t) = (params.poly_degree(), params.plain_modulus());
        let moduli = params.coeff_moduli();
        let too_large = || ParameterError::CoeffModulusTooLarge(params.coeff_modulus_bits());
        let need_bits = params.coeff_modulus_bits()
            + (64 - t.leading_zeros())
            + n.trailing_zeros()
            + MAX_TENSOR_TERMS.trailing_zeros();
        let mut primes = Vec::new();
        let mut have_bits = 0;
        let mut candidates = primes_congruent_one_below(MAX_LIMB_BITS, 2 * n as u64)
            .filter(|p| !moduli.contains(p) && *p != t);
        while have_bits < need_bits {
            let p = candidates.next().ok_or_else(too_large)?;
            have_bits += p.ilog2();
            primes.push(p);
        }
        if moduli.len().max(primes.len()) > MAX_DOT_LIMBS {
            return Err(too_large());
        }

        let h = q / 2;
        let others =
            |j: usize| (primes.iter().enumerate()).filter_map(move |(m, &p)| (m != j).then_some(p));
        let p_limbs = (primes.iter().enumerate())
            .map(|(j, &p)| {
                let q_mod = (q % p as u128) as u64;
                let w = inv_mod(mul_mod(q_mod, product_mod(others(j), p), p), p)
                    .ok_or(ParameterError::InvalidCoeffModulus(p))?;
                let times_w = |x: u128| mul_mod((x % p as u128) as u64, w, p);
                Ok(PLimb {
                    table: NttTable::new(n, p),
                    q_mod,
                    t_w: times_w(t as u128),
                    neg_hat_w: (crt.iter())
                        .map(|c| sub_mod(0, times_w(c.hat), p))
                        .collect(),
                    h_w: (0..moduli.len() as u128)
                        .map(|u| times_w(h + u * q))
                        .collect(),
                })
            })
            .collect::<Result<Vec<_>, ParameterError>>()?;
        let q_limbs = (crt.iter())
            .map(|c| {
                let (qi, hat_inv) = (c.qi, c.hat_inv.0);
                let t_hat_inv = mul_mod(t % qi, hat_inv, qi);
                let p_mod = product_mod(primes.iter().copied(), qi);
                QLimb {
                    qi,
                    barrett: BarrettU128::new(qi),
                    hat: c.hat,
                    t_hat_inv: (t_hat_inv, shoup_precompute(t_hat_inv, qi)),
                    h_hat_inv: mul_mod((h % qi as u128) as u64, hat_inv, qi),
                    p_hat: (0..primes.len())
                        .map(|j| product_mod(others(j), qi))
                        .collect(),
                    neg_p: (0..=primes.len() as u64)
                        .map(|v| sub_mod(0, mul_mod(v, p_mod, qi), qi))
                        .collect(),
                }
            })
            .collect();
        Ok(TensorBasis {
            q,
            q_limbs,
            p_limbs,
        })
    }

    /// NTT tables of the primes of `P'`.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &NttTable> {
        self.p_limbs.iter().map(|limb| &limb.table)
    }

    /// The residues modulo `P'` of centered coefficients — each `x ∈ [0, q)`
    /// of `coeffs` stands for `x − q` when `x > ⌊q/2⌋` — one row per prime,
    /// in evaluation form.
    pub(crate) fn lift_ntt(&self, coeffs: &[u128]) -> Vec<Vec<u64>> {
        let half = self.q / 2;
        (self.p_limbs.iter())
            .map(|limb| {
                let (barrett, p) = (limb.table.barrett(), limb.table.modulus());
                let mut row: Vec<u64> = (coeffs.iter())
                    .map(|&x| {
                        let r = barrett.reduce(x);
                        if x > half {
                            sub_mod(r, limb.q_mod, p)
                        } else {
                            r
                        }
                    })
                    .collect();
                limb.table.forward(&mut row);
                row
            })
            .collect()
    }

    /// `round(t·d/q) mod qᵢ` for every coefficient of a tensor component
    /// `d`, given in coefficient form as one row per limb of `Q` followed by
    /// one per prime of `P'`. Returns one row per limb of `Q`.
    pub(crate) fn scale_round(&self, rows: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let (q_rows, p_rows) = rows.split_at(self.q_limbs.len());
        let n = rows[0].len();
        let mut out = vec![vec![0u64; n]; q_rows.len()];
        let mut y = vec![0u64; q_rows.len()];
        let mut z = vec![0u64; p_rows.len()];
        for x in 0..n {
            // ρ = [t·d + h]_q = Σ yᵢ·(q/qᵢ) − u·q: the CRT coefficients yᵢ
            // and the exact overflow count u.
            let mut rho = 0u128;
            for ((y, row), k) in y.iter_mut().zip(q_rows).zip(&self.q_limbs) {
                let ty = mul_mod_shoup(row[x], k.t_hat_inv.0, k.t_hat_inv.1, k.qi);
                *y = add_mod(ty, k.h_hat_inv, k.qi);
                rho += *y as u128 * k.hat;
            }
            let mut u = 0;
            while rho >= self.q {
                rho -= self.q;
                u += 1;
            }
            // zⱼ = [(t·d + h − ρ)·wⱼ]_{pⱼ} and v = round(Σ zⱼ/pⱼ) in 64-bit
            // fixed point: s = Σ zⱼ·(P'/pⱼ) − v·P', exact for |s| < P'/4.
            let mut fraction = 1u128 << 63;
            for ((z, row), k) in z.iter_mut().zip(p_rows).zip(&self.p_limbs) {
                let mut dot = row[x] as u128 * k.t_w as u128 + k.h_w[u] as u128;
                for (&y, &w) in y.iter().zip(&k.neg_hat_w) {
                    dot += y as u128 * w as u128;
                }
                let barrett = k.table.barrett();
                *z = barrett.reduce(dot);
                fraction += barrett.frac64(*z) as u128;
            }
            let v = (fraction >> 64) as usize;
            for (out, k) in out.iter_mut().zip(&self.q_limbs) {
                let mut dot = k.neg_p[v] as u128;
                for (&z, &p_hat) in z.iter().zip(&k.p_hat) {
                    dot += z as u128 * p_hat as u128;
                }
                out[x] = k.barrett.reduce(dot);
            }
        }
        out
    }
}
