//! Random sampling for FV: uniform ring elements, ternary secrets, and the
//! truncated discrete Gaussian error distribution `X` from the paper §II-B.

use crate::context::BfvContext;
use crate::params::NOISE_TRUNCATION_SIGMAS;
use crate::poly::{PolyForm, RnsPoly};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_obs::prof;

/// Samples a uniformly random element of `R_q` as per-limb uniform residues
/// in representation `form` — a uniform polynomial is uniform in either
/// basis, so nothing is transformed.
pub fn uniform_poly(ctx: &BfvContext, rng: &mut ChaChaRng, form: PolyForm) -> RnsPoly {
    let _prof = prof::span("bfv.sample.uniform");
    let mut poly = RnsPoly::zero(ctx, form);
    for (limb, &qi) in poly.limbs.iter_mut().zip(ctx.params().coeff_moduli()) {
        rng.fill_below(qi, limb);
    }
    poly
}

/// The uniform `a` of a seeded ciphertext: [`uniform_poly`] in evaluation
/// form from the ChaCha20 stream keyed by `seed` — the one expansion rule of
/// the sender ([`crate::encryptor::Encryptor::encrypt_seeded`]) and the
/// receiver ([`crate::ciphertext::SeededCiphertext::expand`]).
pub fn seeded_uniform_poly(ctx: &BfvContext, seed: &[u8; 32]) -> RnsPoly {
    uniform_poly(ctx, &mut ChaChaRng::from_key(*seed), PolyForm::Ntt)
}

/// Samples a ternary polynomial with coefficients in `{-1, 0, 1}` — the FV
/// secret-key distribution. Consumes 2 keystream bits per accepted trit
/// (rejecting the `0b11` pattern) instead of a full word.
pub fn ternary_signed(n: usize, rng: &mut ChaChaRng) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    let mut word = 0u64;
    let mut bits_left = 0u32;
    while out.len() < n {
        if bits_left < 2 {
            word = rng.next_u64();
            bits_left = 64;
        }
        let trit = word & 3;
        word >>= 2;
        bits_left -= 2;
        if trit < 3 {
            out.push(trit as i64 - 1);
        }
    }
    out
}

/// Table-based discrete Gaussian sampler (inverse-CDF over the truncated
/// support). Replaces per-sample Box–Muller transcendentals with one uniform
/// draw and a small binary search — the hot path of encryption.
#[derive(Debug, Clone)]
pub struct DiscreteGaussian {
    /// Cumulative thresholds over the support `-bound..=bound` (32-bit
    /// resolution: tail probabilities below 2^-32 round away, which is
    /// irrelevant at the simulation security level).
    cdf: Vec<u32>,
    bound: i64,
}

impl DiscreteGaussian {
    /// Builds the sampler for standard deviation `sigma`, truncated at
    /// [`NOISE_TRUNCATION_SIGMAS`]·σ.
    pub fn new(sigma: f64) -> Self {
        let bound = (NOISE_TRUNCATION_SIGMAS * sigma).ceil() as i64;
        let weights: Vec<f64> = (-bound..=bound)
            .map(|k| (-(k as f64 * k as f64) / (2.0 * sigma * sigma)).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(weights.len());
        for w in &weights {
            acc += w / total;
            cdf.push((acc.min(1.0) * u32::MAX as f64) as u32);
        }
        *cdf.last_mut().expect("non-empty support") = u32::MAX;
        DiscreteGaussian { cdf, bound }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut ChaChaRng) -> i64 {
        let u = rng.next_u32();
        let idx = self.cdf.partition_point(|&t| t < u);
        idx as i64 - self.bound
    }

    /// Fills a vector of `n` samples.
    pub fn sample_vec(&self, n: usize, rng: &mut ChaChaRng) -> Vec<i64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Samples a ternary secret directly as an [`RnsPoly`].
pub fn ternary_poly(ctx: &BfvContext, rng: &mut ChaChaRng, form: PolyForm) -> RnsPoly {
    let coeffs = ternary_signed(ctx.poly_degree(), rng);
    RnsPoly::from_signed(ctx, &coeffs, form)
}

/// Samples an error polynomial directly as an [`RnsPoly`] using the
/// context's precomputed table sampler.
pub fn gaussian_poly(ctx: &BfvContext, rng: &mut ChaChaRng, form: PolyForm) -> RnsPoly {
    let _prof = prof::span("bfv.sample.error");
    let coeffs = ctx.noise_sampler().sample_vec(ctx.poly_degree(), rng);
    RnsPoly::from_signed(ctx, &coeffs, form)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::presets;

    #[test]
    fn ternary_values_in_range() {
        let mut rng = ChaChaRng::from_seed(1);
        let v = ternary_signed(10_000, &mut rng);
        assert!(v.iter().all(|&x| (-1..=1).contains(&x)));
        // All three values occur.
        for target in -1..=1 {
            assert!(v.contains(&target));
        }
    }

    #[test]
    fn uniform_poly_covers_range() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(3);
        let p = uniform_poly(&ctx, &mut rng, PolyForm::Coeff);
        let q0 = ctx.params().coeff_moduli()[0];
        assert!(p.limbs[0].iter().all(|&v| v < q0));
        // Not all identical.
        assert!(p.limbs[0].windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn table_sampler_moments_match() {
        let sigma = 3.2;
        let sampler = DiscreteGaussian::new(sigma);
        let mut rng = ChaChaRng::from_seed(12);
        let v = sampler.sample_vec(30_000, &mut rng);
        let bound = (NOISE_TRUNCATION_SIGMAS * sigma).ceil() as i64;
        assert!(v.iter().all(|&x| x.abs() <= bound));
        let mean = v.iter().sum::<i64>() as f64 / v.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!((var.sqrt() - sigma).abs() < 0.15, "std {}", var.sqrt());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut a = ChaChaRng::from_seed(4);
        let mut b = ChaChaRng::from_seed(4);
        assert_eq!(
            uniform_poly(&ctx, &mut a, PolyForm::Coeff),
            uniform_poly(&ctx, &mut b, PolyForm::Coeff)
        );
    }
}
