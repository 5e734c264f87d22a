//! Precomputed context: NTT tables, CRT constants, the wide multiplication
//! basis, and reciprocals for exact rescaling.

use crate::arith::{self, inv_mod, mul_mod, shoup_precompute};
use crate::ntt::NttTable;
use crate::params::{EncryptionParameters, ParameterError};
use crate::poly::RnsPoly;
use hesgx_crypto::sha256::sha256;
use hesgx_crypto::uint::{Reciprocal, U256};
use std::sync::Arc;

/// Bit size of the wide-basis primes used for exact tensor products.
const WIDE_PRIME_BITS: u32 = 45;

/// Per-limb constants of [`BfvContext::scale_and_round`]: `hat = q/q_i`,
/// `hat_inv = hat⁻¹ mod q_i` and `t = t_quot·q_i + t_rem`, the pairs being
/// Shoup operands `(w, shoup)` modulo `qi`.
#[derive(Debug)]
struct ScaleRoundLimb {
    qi: u64,
    hat_inv: (u64, u64),
    hat: u128,
    t_quot: u64,
    t_rem: (u64, u64),
}

/// All precomputation for one parameter set.
///
/// Construction is `O(n log n)` per modulus; contexts are meant to be built
/// once and shared via [`Arc`].
#[derive(Debug)]
pub struct BfvContext {
    params: EncryptionParameters,
    /// Identifier binding keys/ciphertexts to this parameter set.
    id: [u8; 32],

    /// NTT tables per coefficient-modulus limb.
    pub(crate) ntt_tables: Vec<NttTable>,

    /// q = Π q_i.
    pub(crate) q: U256,
    pub(crate) rec_q: Reciprocal,
    pub(crate) q_half: U256,
    /// q / q_i.
    pub(crate) q_hat: Vec<U256>,
    /// (q / q_i)^{-1} mod q_i.
    pub(crate) q_hat_inv: Vec<u64>,

    /// Δ = floor(q / t).
    pub(crate) delta: U256,
    /// Δ mod q_i with its Shoup constant.
    pub(crate) delta_mod: Vec<(u64, u64)>,
    /// Decryption's per-limb constants, and `q` (at most 120 bits).
    scale_round: Vec<ScaleRoundLimb>,
    q_u128: u128,

    /// Wide CRT basis for exact ciphertext multiplication.
    pub(crate) wide_tables: Vec<NttTable>,
    pub(crate) wide_primes: Vec<u64>,
    /// P = Π w_j.
    pub(crate) p_prod: U256,
    pub(crate) rec_p: Reciprocal,
    pub(crate) p_half: U256,
    /// P / w_j.
    pub(crate) p_hat: Vec<U256>,
    /// (P / w_j)^{-1} mod w_j.
    pub(crate) p_hat_inv: Vec<u64>,
    /// q mod w_j (for centering inputs into the wide basis).
    pub(crate) q_mod_wide: Vec<u64>,

    /// Precomputed discrete-Gaussian table for the error distribution.
    noise: crate::sampler::DiscreteGaussian,

    /// Number of relinearization decomposition components.
    pub(crate) decomp_count: usize,
    /// w^k mod q_i for each component k and limb i (row-major `[k][i]`).
    pub(crate) decomp_pow: Vec<Vec<u64>>,
}

impl BfvContext {
    /// Builds the context, validating that a wide basis exists for the
    /// parameter sizes.
    ///
    /// # Errors
    ///
    /// Returns [`ParameterError::CoeffModulusTooLarge`] when the total
    /// coefficient modulus leaves no room for the exact-multiplication basis.
    pub fn new(params: EncryptionParameters) -> Result<Arc<Self>, ParameterError> {
        let n = params.poly_degree();
        let q_bits = params.coeff_modulus_bits();
        let log_n = n.trailing_zeros();
        // Exact tensor products need P > n * q^2 (with one bit to spare) and
        // the reciprocal machinery needs P below 2^250.
        let wide_target = 2 * q_bits + log_n + 2;
        if wide_target > 250 {
            return Err(ParameterError::CoeffModulusTooLarge(q_bits));
        }

        let ntt_tables: Vec<NttTable> = params
            .coeff_moduli()
            .iter()
            .map(|&q| NttTable::new(n, q))
            .collect();

        // q product and CRT constants.
        let mut q = U256::ONE;
        for &qi in params.coeff_moduli() {
            let (prod, carry) = q.carrying_mul_u64(qi);
            assert_eq!(carry, 0, "q fits in 256 bits by validation");
            q = prod;
        }
        let rec_q = Reciprocal::new(q);
        let q_half = q.shr(1);
        let mut q_hat = Vec::new();
        let mut q_hat_inv = Vec::new();
        for &qi in params.coeff_moduli() {
            let (hat, rem) = rec_div_by_u64(q, qi);
            debug_assert_eq!(rem, 0);
            q_hat.push(hat);
            let hat_mod = u256_mod_u64(hat, qi);
            q_hat_inv.push(inv_mod(hat_mod, qi).expect("limbs are coprime"));
        }

        // Δ = floor(q / t).
        let t = params.plain_modulus();
        let (delta, _) = rec_div_by_u64(q, t);
        let with_shoup = |w: u64, qi: u64| (w, shoup_precompute(w, qi));
        let delta_mod = (params.coeff_moduli().iter())
            .map(|&qi| with_shoup(u256_mod_u64(delta, qi), qi))
            .collect();
        let q_u128 = q
            .to_u128()
            .ok_or(ParameterError::CoeffModulusTooLarge(q_bits))?;
        let scale_round = (params.coeff_moduli().iter().zip(&q_hat_inv))
            .map(|(&qi, &hat_inv)| ScaleRoundLimb {
                qi,
                hat_inv: with_shoup(hat_inv, qi),
                hat: q_u128 / qi as u128,
                t_quot: t / qi,
                t_rem: with_shoup(t % qi, qi),
            })
            .collect();

        // Wide basis: NTT primes, skipping any that collide with the
        // coefficient moduli, until the product covers the tensor bound. The
        // prime size adapts downward so the rounded-up product stays below the
        // 2^250 reciprocal limit even for large q (e.g. n = 2048 defaults).
        let step = 2 * n as u64;
        let wide_bits = (38..=WIDE_PRIME_BITS)
            .rev()
            .find(|&bits| bits * wide_target.div_ceil(bits) <= 250)
            .ok_or(ParameterError::CoeffModulusTooLarge(q_bits))?;
        let mut wide_primes = Vec::new();
        let mut p_prod = U256::ONE;
        let mut p_bits = 0u32;
        let mut candidate_pool = arith::primes_congruent_one(wide_bits, step, 16).into_iter();
        while p_bits < wide_target {
            let w = candidate_pool.next().expect("enough wide primes exist");
            if params.coeff_moduli().contains(&w) {
                continue;
            }
            let (prod, carry) = p_prod.carrying_mul_u64(w);
            assert_eq!(carry, 0, "wide product below 2^250 by validation");
            p_prod = prod;
            p_bits = p_prod.bits();
            wide_primes.push(w);
        }
        // The rescaling step computes t · |coefficient| inside a U256; the
        // coefficients are bounded by the tensor bound (2^wide_target), which
        // may be well below P itself.
        let t_bits = 64 - params.plain_modulus().leading_zeros();
        if t_bits + wide_target > 255 {
            return Err(ParameterError::CoeffModulusTooLarge(q_bits));
        }
        let wide_tables: Vec<NttTable> = wide_primes.iter().map(|&w| NttTable::new(n, w)).collect();
        let rec_p = Reciprocal::new(p_prod);
        let p_half = p_prod.shr(1);
        let mut p_hat = Vec::new();
        let mut p_hat_inv = Vec::new();
        for &w in &wide_primes {
            let (hat, rem) = rec_div_by_u64(p_prod, w);
            debug_assert_eq!(rem, 0);
            p_hat.push(hat);
            let hat_mod = u256_mod_u64(hat, w);
            p_hat_inv.push(inv_mod(hat_mod, w).expect("wide primes are coprime"));
        }
        let q_mod_wide = wide_primes.iter().map(|&w| u256_mod_u64(q, w)).collect();

        // Relinearization decomposition: q_bits split into dbc-bit digits.
        let dbc = params.decomposition_bit_count();
        let decomp_count = q_bits.div_ceil(dbc) as usize;
        let mut decomp_pow = Vec::with_capacity(decomp_count);
        for k in 0..decomp_count {
            let row: Vec<u64> = params
                .coeff_moduli()
                .iter()
                .map(|&qi| {
                    // (2^dbc)^k mod q_i
                    arith::pow_mod(arith::pow_mod(2, dbc as u64, qi), k as u64, qi)
                })
                .collect();
            decomp_pow.push(row);
        }

        let params_noise = params.noise_std_dev();
        // Context id: hash of the parameter encoding.
        let mut material = Vec::new();
        material.extend_from_slice(&(n as u64).to_le_bytes());
        for &qi in params.coeff_moduli() {
            material.extend_from_slice(&qi.to_le_bytes());
        }
        material.extend_from_slice(&t.to_le_bytes());
        material.extend_from_slice(&dbc.to_le_bytes());
        let id = sha256(&material);

        Ok(Arc::new(BfvContext {
            params,
            id,
            ntt_tables,
            q,
            rec_q,
            q_half,
            q_hat,
            q_hat_inv,
            delta,
            delta_mod,
            scale_round,
            q_u128,
            wide_tables,
            wide_primes,
            p_prod,
            rec_p,
            p_half,
            p_hat,
            p_hat_inv,
            q_mod_wide,
            noise: crate::sampler::DiscreteGaussian::new(params_noise),
            decomp_count,
            decomp_pow,
        }))
    }

    /// The validated parameters this context was built from.
    pub fn params(&self) -> &EncryptionParameters {
        &self.params
    }

    /// A 32-byte identifier binding artifacts to this parameter set.
    pub fn id(&self) -> &[u8; 32] {
        &self.id
    }

    /// The ring degree `n`.
    pub fn poly_degree(&self) -> usize {
        self.params.poly_degree()
    }

    /// Number of RNS limbs of `q`.
    pub fn limb_count(&self) -> usize {
        self.params.coeff_moduli().len()
    }

    /// The scaling factor `Δ = floor(q / t)` applied to messages.
    pub fn delta(&self) -> U256 {
        self.delta
    }

    /// The precomputed error-distribution sampler.
    pub fn noise_sampler(&self) -> &crate::sampler::DiscreteGaussian {
        &self.noise
    }

    /// Reconstructs a coefficient from its RNS residues into `[0, q)`.
    pub(crate) fn crt_reconstruct(&self, residues: &[u64]) -> U256 {
        debug_assert_eq!(residues.len(), self.limb_count());
        let mut acc = hesgx_crypto::uint::U512::ZERO;
        for (i, &r) in residues.iter().enumerate() {
            let c = mul_mod(r, self.q_hat_inv[i], self.params.coeff_moduli()[i]);
            let (term, carry) = self.q_hat[i].carrying_mul_u64(c);
            let mut wide = hesgx_crypto::uint::U512::from_u256(term);
            wide.0[4] = carry;
            let (sum, overflow) = acc.overflowing_add(wide);
            debug_assert!(!overflow);
            acc = sum;
        }
        self.rec_q.reduce_u512(acc)
    }

    /// Decryption's `⌊(t·x + ⌊q/2⌋)/q⌋ mod t` for every coefficient `x` of
    /// `phase`, straight from its residues `x_i` in 64/128-bit words and
    /// bit-identical to the `U256` evaluation (derivation: DESIGN.md §19).
    /// With `y_i = [x_i·(q/q_i)⁻¹]_{q_i}` and `t·y_i = w_i·q_i + r_i` the
    /// value is `Σ w_i + ⌊(Σ r_i·q/q_i + ⌊q/2⌋)/q⌋`; each `r_i·q/q_i < q <
    /// 2^120`, so the remainder sum fits `u128` and carries at most the limb
    /// count into the quotient.
    pub(crate) fn scale_and_round(&self, phase: &RnsPoly) -> Vec<u64> {
        let t = self.params.plain_modulus();
        let q = self.q_u128;
        (0..self.poly_degree())
            .map(|j| {
                let mut quot = 0u64;
                let mut rem = q / 2;
                for (limb, c) in phase.limbs.iter().zip(&self.scale_round) {
                    let y = arith::mul_mod_shoup(limb[j], c.hat_inv.0, c.hat_inv.1, c.qi);
                    let (w, r) = arith::mul_div_rem_shoup(y, c.t_rem.0, c.t_rem.1, c.qi);
                    quot += c.t_quot * y + w;
                    rem += r as u128 * c.hat;
                }
                while rem >= q {
                    rem -= q;
                    quot += 1;
                }
                // Below `(2t + 1)·limbs`: subtractions beat a division.
                while quot >= t {
                    quot -= t;
                }
                quot
            })
            .collect()
    }

    /// Reconstructs a wide-basis coefficient into `[0, P)`.
    pub(crate) fn crt_reconstruct_wide(&self, residues: &[u64]) -> U256 {
        debug_assert_eq!(residues.len(), self.wide_primes.len());
        let mut acc = hesgx_crypto::uint::U512::ZERO;
        for (j, &r) in residues.iter().enumerate() {
            let c = mul_mod(r, self.p_hat_inv[j], self.wide_primes[j]);
            let (term, carry) = self.p_hat[j].carrying_mul_u64(c);
            let mut wide = hesgx_crypto::uint::U512::from_u256(term);
            wide.0[4] = carry;
            let (sum, overflow) = acc.overflowing_add(wide);
            debug_assert!(!overflow);
            acc = sum;
        }
        self.rec_p.reduce_u512(acc)
    }
}

/// Divides a `U256` by a `u64`, returning quotient and remainder.
pub(crate) fn rec_div_by_u64(n: U256, d: u64) -> (U256, u64) {
    assert!(d > 0);
    let mut q = [0u64; 4];
    let mut rem: u128 = 0;
    for i in (0..4).rev() {
        let cur = rem << 64 | n.0[i] as u128;
        q[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    (U256(q), rem as u64)
}

/// Computes `n mod d` for a `u64` divisor.
pub(crate) fn u256_mod_u64(n: U256, d: u64) -> u64 {
    rec_div_by_u64(n, d).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::presets;

    #[test]
    fn context_builds_for_presets() {
        let ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        assert_eq!(ctx.poly_degree(), 1024);
        assert_eq!(ctx.limb_count(), 2);
        assert!(ctx.wide_primes.len() >= 5);
        let ctx2 = BfvContext::new(presets::test_n256()).unwrap();
        assert_eq!(ctx2.poly_degree(), 256);
    }

    #[test]
    fn div_by_u64_matches_u128() {
        let n = U256::from_u128(123_456_789_012_345_678_901_234_567u128);
        let (q, r) = rec_div_by_u64(n, 97);
        assert_eq!(
            q.to_u128().unwrap(),
            123_456_789_012_345_678_901_234_567u128 / 97
        );
        assert_eq!(r as u128, 123_456_789_012_345_678_901_234_567u128 % 97);
    }

    #[test]
    fn crt_reconstruct_roundtrip() {
        let ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        let moduli = ctx.params().coeff_moduli().to_vec();
        // Pick x, compute residues, reconstruct.
        let x = U256::from_u128(0xdead_beef_cafe_babe_0123_4567u128);
        let residues: Vec<u64> = moduli.iter().map(|&m| u256_mod_u64(x, m)).collect();
        assert_eq!(ctx.crt_reconstruct(&residues), x);
    }

    #[test]
    fn crt_reconstruct_wide_roundtrip() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        // Any value below P (the wide product has >= 130 bits here).
        let x = U256([0x1234_5678_9abc_def0, 0xfeed_beef, 0, 0]);
        let residues: Vec<u64> = ctx
            .wide_primes
            .iter()
            .map(|&w| u256_mod_u64(x, w))
            .collect();
        assert_eq!(ctx.crt_reconstruct_wide(&residues), x);
    }

    #[test]
    fn scale_and_round_is_exact_on_both_sides_of_the_rounding_boundary() {
        // A random phase sits next to a rounding boundary with probability
        // ~1/q, so solve for the neighbours: `t` is a unit modulo every
        // limb, hence `t·x + ⌊q/2⌋ ≡ c (mod q)` has one solution `x` per
        // `c`, found limb by limb. `c = q−1` rounds down, `c = 0` up.
        for params in [presets::paper_n1024(), presets::test_n256()] {
            let ctx = BfvContext::new(params).unwrap();
            let (t, q) = (ctx.params().plain_modulus(), ctx.q_u128);
            let targets = [q - 2, q - 1, 0, 1, q / 2, q / 2 + 1].map(|c| (c + q - q / 2) % q);
            let mut phase = RnsPoly::zero(&ctx, crate::poly::PolyForm::Coeff);
            for (limb, &qi) in phase.limbs.iter_mut().zip(ctx.params().coeff_moduli()) {
                let t_inv = inv_mod(t % qi, qi).unwrap();
                for (v, target) in limb.iter_mut().zip(targets) {
                    *v = mul_mod((target % qi as u128) as u64, t_inv, qi);
                }
            }
            let got = ctx.scale_and_round(&phase);
            for j in 0..targets.len() {
                let residues: Vec<u64> = phase.limbs.iter().map(|limb| limb[j]).collect();
                let (tx, carry) = ctx.crt_reconstruct(&residues).carrying_mul_u64(t);
                assert_eq!(carry, 0);
                let (quot, rem) = ctx.rec_q.div_rem(tx.checked_add(ctx.q_half).unwrap());
                assert_eq!(rem.to_u128().unwrap(), (targets[j] + q / 2) % q);
                assert_eq!(got[j], quot.to_u64().unwrap() % t, "coefficient {j}");
            }
        }
    }

    #[test]
    fn delta_times_t_close_to_q() {
        let ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        let t = ctx.params().plain_modulus();
        let (dt, carry) = ctx.delta.carrying_mul_u64(t);
        assert_eq!(carry, 0);
        // q - Δt = q mod t < t
        let diff = ctx.q.wrapping_sub(dt);
        assert!(diff < U256::from_u64(t));
    }

    #[test]
    fn context_ids_differ_per_params() {
        let a = BfvContext::new(presets::paper_n1024()).unwrap();
        let b = BfvContext::new(presets::test_n256()).unwrap();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn wide_basis_covers_tensor_bound() {
        let ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        let q_bits = ctx.params().coeff_modulus_bits();
        let n_bits = ctx.poly_degree().trailing_zeros();
        assert!(ctx.p_prod.bits() > 2 * q_bits + n_bits);
        assert!(ctx.p_prod.bits() <= 250);
    }
}

#[cfg(test)]
mod wide_basis_tests {
    use super::*;
    use crate::params::EncryptionParameters;

    #[test]
    fn wide_basis_adapts_for_large_degrees() {
        // n = 2048 with the default (112-bit) q needs a finer-grained basis;
        // this used to overflow the 2^250 reciprocal limit.
        for n in [2048usize, 4096] {
            let params = EncryptionParameters::builder()
                .poly_degree(n)
                .plain_modulus(65537)
                .build()
                .unwrap();
            let ctx = BfvContext::new(params).unwrap();
            let q_bits = ctx.params().coeff_modulus_bits();
            assert!(ctx.p_prod.bits() > 2 * q_bits + n.trailing_zeros());
            assert!(
                ctx.p_prod.bits() <= 250,
                "n={n}: {} bits",
                ctx.p_prod.bits()
            );
        }
    }

    #[test]
    fn multiplication_works_at_degree_2048() {
        use crate::decryptor::Decryptor;
        use crate::encryptor::Encryptor;
        use crate::keys::KeyGenerator;
        use crate::plaintext::Plaintext;
        use hesgx_crypto::rng::ChaChaRng;
        let params = EncryptionParameters::builder()
            .poly_degree(2048)
            .plain_modulus(65537)
            .build()
            .unwrap();
        let ctx = BfvContext::new(params).unwrap();
        let mut rng = ChaChaRng::from_seed(61);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
        let eval = crate::evaluator::Evaluator::new(ctx);
        let a = enc.encrypt(&Plaintext::constant(123), &mut rng).unwrap();
        let b = enc.encrypt(&Plaintext::constant(45), &mut rng).unwrap();
        let prod = eval.multiply(&a, &b).unwrap();
        assert_eq!(dec.decrypt(&prod).unwrap().coeffs()[0], 123 * 45);
    }
}
