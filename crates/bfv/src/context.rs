//! Precomputed context: NTT tables, CRT constants and the extension basis of
//! ciphertext multiplication.

use crate::arith::{self, inv_mod, shoup_precompute};
use crate::ntt::NttTable;
use crate::params::{EncryptionParameters, ParameterError, DEFAULT_NOISE_STD_DEV};
use crate::poly::RnsPoly;
use crate::tensor::TensorBasis;
use hesgx_crypto::sha256::sha256;
use std::sync::Arc;

/// Per-limb CRT constants: `hat = q/q_i`, `hat_inv = hat⁻¹ mod q_i` and, for
/// [`BfvContext::scale_and_round`], `t = t_quot·q_i + t_rem`; the pairs are
/// Shoup operands `(w, shoup)` modulo `qi`.
#[derive(Debug)]
pub(crate) struct CrtLimb {
    pub(crate) qi: u64,
    pub(crate) hat_inv: (u64, u64),
    pub(crate) hat: u128,
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

    /// q = Π q_i (at most 120 bits) and its per-limb CRT constants.
    pub(crate) q: u128,
    crt: Vec<CrtLimb>,
    /// Δ mod q_i with its Shoup constant.
    pub(crate) delta_mod: Vec<(u64, u64)>,

    /// Extension basis for exact ciphertext multiplication.
    pub(crate) tensor: TensorBasis,

    /// Precomputed discrete-Gaussian table for the error distribution.
    noise: crate::sampler::DiscreteGaussian,

    /// Number of relinearization decomposition components.
    pub(crate) decomp_count: usize,
    /// w^k mod q_i for each component k and limb i (row-major `[k][i]`).
    pub(crate) decomp_pow: Vec<Vec<u64>>,
}

impl BfvContext {
    /// Builds the context: validates the parameters and selects the
    /// extension basis of ciphertext multiplication.
    ///
    /// # Errors
    ///
    /// Returns the [`ParameterError`] of the first invalid field, or
    /// [`ParameterError::CoeffModulusTooLarge`] when the coefficient modulus
    /// leaves no room for the exact-multiplication basis.
    pub fn new(params: EncryptionParameters) -> Result<Arc<Self>, ParameterError> {
        // Deserialized parameters have not been through the builder.
        params.validate()?;
        let n = params.poly_degree();
        let t = params.plain_modulus();
        let moduli = params.coeff_moduli();
        let ntt_tables: Vec<NttTable> = moduli.iter().map(|&q| NttTable::new(n, q)).collect();

        // q < 2^120 by validation.
        let q: u128 = moduli.iter().map(|&qi| qi as u128).product();
        let with_shoup = |w: u64, qi: u64| (w, shoup_precompute(w, qi));
        let crt = (moduli.iter())
            .map(|&qi| {
                let hat = q / qi as u128;
                let hat_inv = inv_mod((hat % qi as u128) as u64, qi)
                    .ok_or(ParameterError::DuplicateCoeffModulus(qi))?;
                Ok(CrtLimb {
                    qi,
                    hat_inv: with_shoup(hat_inv, qi),
                    hat,
                    t_quot: t / qi,
                    t_rem: with_shoup(t % qi, qi),
                })
            })
            .collect::<Result<Vec<_>, ParameterError>>()?;
        let delta = q / t as u128;
        let delta_mod = (moduli.iter())
            .map(|&qi| with_shoup((delta % qi as u128) as u64, qi))
            .collect();
        let tensor = TensorBasis::new(&params, q, &crt)?;

        // Relinearization decomposition: q_bits split into dbc-bit digits.
        let dbc = params.decomposition_bit_count();
        let decomp_count = params.coeff_modulus_bits().div_ceil(dbc) as usize;
        let mut decomp_pow = Vec::with_capacity(decomp_count);
        for k in 0..decomp_count {
            let row: Vec<u64> = moduli
                .iter()
                .map(|&qi| {
                    // (2^dbc)^k mod q_i
                    arith::pow_mod(arith::pow_mod(2, dbc as u64, qi), k as u64, qi)
                })
                .collect();
            decomp_pow.push(row);
        }

        // Context id: hash of the parameter encoding.
        let mut material = Vec::new();
        material.extend_from_slice(&(n as u64).to_le_bytes());
        for &qi in moduli {
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
            crt,
            delta_mod,
            tensor,
            noise: crate::sampler::DiscreteGaussian::new(DEFAULT_NOISE_STD_DEV),
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
    pub fn delta(&self) -> u128 {
        self.q / self.params.plain_modulus() as u128
    }

    /// The precomputed error-distribution sampler.
    pub fn noise_sampler(&self) -> &crate::sampler::DiscreteGaussian {
        &self.noise
    }

    /// Coefficient `j` of `poly` reconstructed from its residues into
    /// `[0, q)`: `Σ [x_i·(q/q_i)⁻¹]_{q_i}·q/q_i`, each term below `q < 2^120`,
    /// less the few multiples of `q` the sum ran over.
    pub(crate) fn reconstruct(&self, poly: &RnsPoly, j: usize) -> u128 {
        let mut x = 0u128;
        for (limb, c) in poly.limbs.iter().zip(&self.crt) {
            x += arith::mul_mod_shoup(limb[j], c.hat_inv.0, c.hat_inv.1, c.qi) as u128 * c.hat;
        }
        while x >= self.q {
            x -= self.q;
        }
        x
    }

    /// [`BfvContext::scale_and_round_at`] every coefficient of `phase`.
    pub(crate) fn scale_and_round(&self, phase: &RnsPoly) -> Vec<u64> {
        self.scale_and_round_at(phase, 0..self.poly_degree())
    }

    /// Decryption's `⌊(t·x + ⌊q/2⌋)/q⌋ mod t` for coefficient `x` of `phase`
    /// at each index of `at` (each below the degree), in that order,
    /// straight from its residues `x_i` in 64/128-bit words and
    /// bit-identical to the `U256` evaluation (derivation: DESIGN.md §19).
    /// With `y_i = [x_i·(q/q_i)⁻¹]_{q_i}` and `t·y_i = w_i·q_i + r_i` the
    /// value is `Σ w_i + ⌊(Σ r_i·q/q_i + ⌊q/2⌋)/q⌋`; each `r_i·q/q_i < q <
    /// 2^120`, so the remainder sum fits `u128` and carries at most the limb
    /// count into the quotient.
    pub(crate) fn scale_and_round_at(
        &self,
        phase: &RnsPoly,
        at: impl IntoIterator<Item = usize>,
    ) -> Vec<u64> {
        let t = self.params.plain_modulus();
        let q = self.q;
        at.into_iter()
            .map(|j| {
                let mut quot = 0u64;
                let mut rem = q / 2;
                for (limb, c) in phase.limbs.iter().zip(&self.crt) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::mul_mod;
    use crate::params::presets;
    use crate::poly::PolyForm;
    use hesgx_crypto::uint::{Reciprocal, U256};

    /// `poly` with coefficient `j` set to `x mod q_i` in every limb.
    fn set_coeff(ctx: &BfvContext, poly: &mut RnsPoly, j: usize, x: u128) {
        for (limb, &qi) in poly.limbs.iter_mut().zip(ctx.params().coeff_moduli()) {
            limb[j] = (x % qi as u128) as u64;
        }
    }

    #[test]
    fn context_builds_for_presets() {
        let ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        assert_eq!(ctx.poly_degree(), 1024);
        assert_eq!(ctx.limb_count(), 2);
        let ctx2 = BfvContext::new(presets::test_n256()).unwrap();
        assert_eq!(ctx2.poly_degree(), 256);
    }

    #[test]
    fn crt_reconstruct_roundtrip() {
        for params in [presets::paper_n1024(), presets::test_n256()] {
            let ctx = BfvContext::new(params).unwrap();
            let q = ctx.q;
            let probes = [
                0,
                1,
                q / 2,
                q / 2 + 1,
                q - 1,
                0xdead_beef_cafe_babe_0123 % q,
            ];
            let mut poly = RnsPoly::zero(&ctx, PolyForm::Coeff);
            for (j, &x) in probes.iter().enumerate() {
                set_coeff(&ctx, &mut poly, j, x);
            }
            for (j, &x) in probes.iter().enumerate() {
                assert_eq!(ctx.reconstruct(&poly, j), x);
            }
        }
    }

    #[test]
    fn scale_and_round_is_exact_on_both_sides_of_the_rounding_boundary() {
        // A random phase sits next to a rounding boundary with probability
        // ~1/q, so solve for the neighbours: `t` is a unit modulo every
        // limb, hence `t·x + ⌊q/2⌋ ≡ c (mod q)` has one solution `x` per
        // `c`, found limb by limb. `c = q−1` rounds down, `c = 0` up.
        for params in [presets::paper_n1024(), presets::test_n256()] {
            let ctx = BfvContext::new(params).unwrap();
            let (t, q) = (ctx.params().plain_modulus(), ctx.q);
            let targets = [q - 2, q - 1, 0, 1, q / 2, q / 2 + 1].map(|c| (c + q - q / 2) % q);
            let mut phase = RnsPoly::zero(&ctx, PolyForm::Coeff);
            for (limb, &qi) in phase.limbs.iter_mut().zip(ctx.params().coeff_moduli()) {
                let t_inv = inv_mod(t % qi, qi).unwrap();
                for (v, target) in limb.iter_mut().zip(targets) {
                    *v = mul_mod((target % qi as u128) as u64, t_inv, qi);
                }
            }
            let got = ctx.scale_and_round(&phase);
            let rec_q = Reciprocal::new(U256::from_u128(q));
            for j in 0..targets.len() {
                let x = U256::from_u128(ctx.reconstruct(&phase, j));
                let (tx, carry) = x.carrying_mul_u64(t);
                assert_eq!(carry, 0);
                let (quot, rem) = rec_q.div_rem(tx.checked_add(U256::from_u128(q / 2)).unwrap());
                assert_eq!(rem.to_u128().unwrap(), (targets[j] + q / 2) % q);
                assert_eq!(got[j], quot.to_u64().unwrap() % t, "coefficient {j}");
            }
        }
    }

    /// Rounding at chosen coefficients is the full rounding read there: a
    /// phase whose first six coefficients sit on both sides of a rounding
    /// boundary (the targets of the test above) and whose others are
    /// random, read at random subsets in random orders, repeats included.
    #[test]
    fn scale_and_round_at_chosen_coefficients_is_the_full_one_there() {
        let mut rng = hesgx_crypto::rng::ChaChaRng::from_seed(39);
        for params in [presets::paper_n1024(), presets::test_n256()] {
            let ctx = BfvContext::new(params).unwrap();
            let (t, q, n) = (ctx.params().plain_modulus(), ctx.q, ctx.poly_degree());
            let targets = [q - 2, q - 1, 0, 1, q / 2, q / 2 + 1].map(|c| (c + q - q / 2) % q);
            let mut phase = RnsPoly::zero(&ctx, PolyForm::Coeff);
            for (limb, &qi) in phase.limbs.iter_mut().zip(ctx.params().coeff_moduli()) {
                let t_inv = inv_mod(t % qi, qi).unwrap();
                rng.fill_below(qi, limb);
                for (v, target) in limb.iter_mut().zip(targets) {
                    *v = mul_mod((target % qi as u128) as u64, t_inv, qi);
                }
            }
            let full = ctx.scale_and_round(&phase);
            assert_eq!(full.len(), n);
            let mut every: Vec<usize> = (0..n).collect();
            for round in 0..8 {
                rng.shuffle(&mut every);
                let len = [0, 1, 6, n / 3, n][round % 5];
                let mut at = every[..len].to_vec();
                at.extend(every.iter().take(round));
                at.extend(0..6);
                let got = ctx.scale_and_round_at(&phase, at.iter().copied());
                let want: Vec<u64> = at.iter().map(|&j| full[j]).collect();
                assert_eq!(got, want, "{len} coefficients, round {round}");
            }
        }
    }

    #[test]
    fn delta_times_t_close_to_q() {
        let ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        let t = ctx.params().plain_modulus() as u128;
        // q - Δt = q mod t < t
        assert!(ctx.q - ctx.delta() * t < t);
        for (&(delta_i, _), &qi) in ctx.delta_mod.iter().zip(ctx.params().coeff_moduli()) {
            assert_eq!(delta_i as u128, ctx.delta() % qi as u128);
        }
    }

    #[test]
    fn context_ids_differ_per_params() {
        let a = BfvContext::new(presets::paper_n1024()).unwrap();
        let b = BfvContext::new(presets::test_n256()).unwrap();
        assert_ne!(a.id(), b.id());
    }

    /// `P' > MAX_TENSOR_TERMS·n·t·q`, i.e. `|round(t·d/q)| < P'/4` for every
    /// tensor component `d` — evaluated on the integers themselves.
    pub(super) fn extension_clears_the_scaled_tensor(ctx: &BfvContext) -> bool {
        let times = |x: U256, y: u64| {
            let (prod, carry) = x.carrying_mul_u64(y);
            assert_eq!(carry, 0);
            prod
        };
        let extension = (ctx.tensor.tables()).fold(U256::ONE, |p, t| times(p, t.modulus()));
        let terms = (crate::tensor::MAX_TENSOR_TERMS * ctx.poly_degree()) as u64;
        let scaled = times(U256::from_u128(ctx.q), ctx.params().plain_modulus());
        extension > times(scaled, terms)
    }

    #[test]
    fn wide_basis_covers_tensor_bound() {
        for (params, primes) in [(presets::paper_n1024(), 3), (presets::test_n256(), 2)] {
            let ctx = BfvContext::new(params).unwrap();
            assert!(extension_clears_the_scaled_tensor(&ctx));
            assert_eq!(ctx.tensor.tables().count(), primes);
        }
    }

    #[test]
    fn unvalidated_parameters_are_an_error_not_a_panic() {
        // Deserialization bypasses the builder: a composite limb, a repeated
        // limb and an oversized `t` must all come back as errors.
        let good = presets::test_n256();
        let with = |moduli: Vec<u64>, t: u64| {
            let mut params = good.clone();
            params.set_unvalidated(moduli, t);
            BfvContext::new(params).map(|_| ())
        };
        let qs = good.coeff_moduli().to_vec();
        assert_eq!(
            with(vec![qs[0], qs[0]], 12289),
            Err(ParameterError::DuplicateCoeffModulus(qs[0]))
        );
        assert_eq!(
            with(vec![qs[0], 513 * 5], 12289),
            Err(ParameterError::InvalidCoeffModulus(513 * 5))
        );
        assert_eq!(
            with(qs.clone(), 1 << 40),
            Err(ParameterError::InvalidPlainModulus(1 << 40))
        );
        assert_eq!(with(qs, 12289), Ok(()));
    }
}

#[cfg(test)]
mod wide_basis_tests {
    use super::tests::extension_clears_the_scaled_tensor;
    use super::*;
    use crate::arith::primes_congruent_one;
    use crate::params::EncryptionParameters;

    #[test]
    fn wide_basis_adapts_for_large_degrees() {
        // Every degree the default coefficient moduli serve gets a basis.
        for n in [256usize, 512, 1024, 2048, 4096, 8192, 16384, 32768] {
            let params = EncryptionParameters::builder()
                .poly_degree(n)
                .plain_modulus(65537)
                .build()
                .unwrap();
            let ctx = BfvContext::new(params).unwrap();
            assert!(extension_clears_the_scaled_tensor(&ctx), "n={n}");
            assert!(ctx.tensor.tables().count() <= 3, "n={n}");
        }
    }

    #[test]
    fn extension_primes_skip_the_coefficient_moduli() {
        // The second-largest 62-bit NTT prime as a limb of q: the extension
        // basis takes the largest, then skips to the third.
        let top = primes_congruent_one(62, 512, 5);
        let params = EncryptionParameters::builder()
            .poly_degree(256)
            .coeff_moduli(vec![top[1], primes_congruent_one(40, 512, 1)[0]])
            .plain_modulus(12289)
            .build()
            .unwrap();
        let ctx = BfvContext::new(params).unwrap();
        let extension: Vec<u64> = ctx.tensor.tables().map(|t| t.modulus()).collect();
        assert_eq!(extension, [top[0], top[2], top[3]]);
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
