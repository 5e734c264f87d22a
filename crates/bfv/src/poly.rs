//! RNS polynomials over `R_q = Z_q[x]/(x^n + 1)`.
//!
//! A polynomial is stored as one residue vector per coefficient-modulus limb,
//! either in coefficient form or in NTT (evaluation) form. All arithmetic is
//! component-wise per limb; only ciphertext multiplication, relinearization
//! and the noise measurements ever reconstruct full-width coefficients, and
//! those fit a `u128`.

use crate::arith::add_mod;
use crate::context::BfvContext;
use crate::ntt::bit_reverse;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Representation of an [`RnsPoly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolyForm {
    /// Coefficient (power-basis) representation.
    Coeff,
    /// Number-theoretic-transform (evaluation) representation.
    Ntt,
}

/// A polynomial in RNS representation: `limbs[i][j]` is coefficient `j`
/// reduced modulo the `i`-th coefficient modulus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RnsPoly {
    pub(crate) limbs: Vec<Vec<u64>>,
    pub(crate) form: PolyForm,
}

impl RnsPoly {
    /// The zero polynomial for `ctx` in the requested form.
    pub fn zero(ctx: &BfvContext, form: PolyForm) -> Self {
        RnsPoly {
            limbs: vec![vec![0u64; ctx.poly_degree()]; ctx.limb_count()],
            form,
        }
    }

    /// Builds a polynomial from signed small coefficients (e.g. sampled noise
    /// or ternary secrets), reducing each into every limb.
    pub fn from_signed(ctx: &BfvContext, coeffs: &[i64], form: PolyForm) -> Self {
        assert_eq!(coeffs.len(), ctx.poly_degree());
        let mut poly = RnsPoly::zero(ctx, PolyForm::Coeff);
        for (limb, &qi) in poly.limbs.iter_mut().zip(ctx.params().coeff_moduli()) {
            for (v, &c) in limb.iter_mut().zip(coeffs) {
                // Noise, ternary and centered-plaintext magnitudes sit far
                // below every limb, so the division is the rare path.
                let mag = c.unsigned_abs();
                let mag = if mag < qi { mag } else { mag % qi };
                *v = if c < 0 && mag != 0 { qi - mag } else { mag };
            }
        }
        if form == PolyForm::Ntt {
            poly.to_ntt(ctx);
        }
        poly
    }

    /// Builds `Δ · m`: coefficient `j` is `coeffs[j] · (Δ mod q_i)` in limb
    /// `i`, by the context's precomputed Shoup operands (sound for any `u64`
    /// coefficient, reduced or not).
    pub(crate) fn from_scaled_plain(ctx: &BfvContext, coeffs: &[u64]) -> Self {
        assert!(coeffs.len() <= ctx.poly_degree());
        let mut poly = RnsPoly::zero(ctx, PolyForm::Coeff);
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            let (s, s_shoup) = ctx.delta_mod[i];
            for (v, &c) in poly.limbs[i].iter_mut().zip(coeffs) {
                *v = crate::arith::mul_mod_shoup(c, s, s_shoup, qi);
            }
        }
        poly
    }

    /// The representation this polynomial is currently in.
    pub fn form(&self) -> PolyForm {
        self.form
    }

    /// Converts to NTT form in place (no-op if already there).
    pub fn to_ntt(&mut self, ctx: &BfvContext) {
        if self.form == PolyForm::Ntt {
            return;
        }
        for (limb, table) in self.limbs.iter_mut().zip(ctx.ntt_tables.iter()) {
            table.forward(limb);
        }
        self.form = PolyForm::Ntt;
    }

    /// Converts to coefficient form in place (no-op if already there).
    pub fn to_coeff(&mut self, ctx: &BfvContext) {
        if self.form == PolyForm::Coeff {
            return;
        }
        for (limb, table) in self.limbs.iter_mut().zip(ctx.ntt_tables.iter()) {
            table.inverse(limb);
        }
        self.form = PolyForm::Coeff;
    }

    /// This polynomial in representation `form`: borrowed when it already
    /// is (the common case), a converted copy only when the forms differ.
    pub(crate) fn in_form(&self, form: PolyForm, ctx: &BfvContext) -> Cow<'_, RnsPoly> {
        if self.form == form {
            return Cow::Borrowed(self);
        }
        let mut converted = self.clone();
        match form {
            PolyForm::Coeff => converted.to_coeff(ctx),
            PolyForm::Ntt => converted.to_ntt(ctx),
        }
        Cow::Owned(converted)
    }

    /// `self += other` (forms must match).
    pub fn add_assign(&mut self, other: &RnsPoly, ctx: &BfvContext) {
        assert_eq!(self.form, other.form, "form mismatch in add");
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            for j in 0..self.limbs[i].len() {
                self.limbs[i][j] = add_mod(self.limbs[i][j], other.limbs[i][j], qi);
            }
        }
    }

    /// `self = -self`.
    pub fn negate(&mut self, ctx: &BfvContext) {
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            for v in self.limbs[i].iter_mut() {
                *v = if *v == 0 { 0 } else { qi - *v };
            }
        }
    }

    /// Pointwise product (both operands must be in NTT form).
    ///
    /// Uses the per-limb Barrett reducers (no `u128 %` division in the
    /// loop); results are identical to the division form.
    pub fn mul_pointwise(&self, other: &RnsPoly, ctx: &BfvContext) -> RnsPoly {
        assert_eq!(self.form, PolyForm::Ntt);
        assert_eq!(other.form, PolyForm::Ntt);
        let mut out = self.clone();
        for (i, table) in ctx.ntt_tables.iter().enumerate() {
            let barrett = table.barrett();
            for j in 0..out.limbs[i].len() {
                out.limbs[i][j] = barrett.mul_mod(out.limbs[i][j], other.limbs[i][j]);
            }
        }
        out
    }

    /// Pointwise multiply-accumulate: `self += a ⊙ b` (all NTT form).
    pub fn mul_acc(&mut self, a: &RnsPoly, b: &RnsPoly, ctx: &BfvContext) {
        assert_eq!(self.form, PolyForm::Ntt);
        assert_eq!(a.form, PolyForm::Ntt);
        assert_eq!(b.form, PolyForm::Ntt);
        for (i, (&qi, table)) in ctx
            .params()
            .coeff_moduli()
            .iter()
            .zip(ctx.ntt_tables.iter())
            .enumerate()
        {
            let barrett = table.barrett();
            for j in 0..self.limbs[i].len() {
                let prod = barrett.mul_mod(a.limbs[i][j], b.limbs[i][j]);
                self.limbs[i][j] = add_mod(self.limbs[i][j], prod, qi);
            }
        }
    }

    /// Multiplies every coefficient by a small scalar (Shoup fast path —
    /// this is the hot loop of homomorphic convolution).
    pub fn scale_u64(&mut self, scalar: u64, ctx: &BfvContext) {
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            let s = scalar % qi;
            let s_shoup = crate::arith::shoup_precompute(s, qi);
            for v in self.limbs[i].iter_mut() {
                *v = crate::arith::mul_mod_shoup(*v, s, s_shoup, qi);
            }
        }
    }

    /// [`RnsPoly::scale_u64`] with the per-limb `(s mod qi, shoup)` pairs
    /// precomputed once at provisioning instead of per call — the per-limb
    /// `u128` division in `shoup_precompute` is the dominant per-call cost
    /// for small polynomials.
    pub fn scale_u64_prepared(&mut self, scales: &[(u64, u64)], ctx: &BfvContext) {
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            let (s, s_shoup) = scales[i];
            for v in self.limbs[i].iter_mut() {
                *v = crate::arith::mul_mod_shoup(*v, s, s_shoup, qi);
            }
        }
    }

    /// Fused scalar multiply-accumulate: `self += (±1)·src·s`, with the
    /// per-limb `(s mod qi, shoup)` pairs precomputed. Value-for-value
    /// identical to clone → `scale_u64` → `negate` → `add_assign`, without
    /// the temporary polynomial.
    pub fn scale_acc_prepared(
        &mut self,
        src: &RnsPoly,
        scales: &[(u64, u64)],
        negate: bool,
        ctx: &BfvContext,
    ) {
        assert_eq!(self.form, src.form, "form mismatch in scale_acc");
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            let (s, s_shoup) = scales[i];
            for (dst, &v) in self.limbs[i].iter_mut().zip(src.limbs[i].iter()) {
                let mut prod = crate::arith::mul_mod_shoup(v, s, s_shoup, qi);
                if negate && prod != 0 {
                    prod = qi - prod;
                }
                *dst = add_mod(*dst, prod, qi);
            }
        }
    }

    /// The Galois automorphism `x → x^g`, `g` odd and below `2n`, in
    /// evaluation form (converted first if need be), where it permutes: slot
    /// `i` holds the value at `ψ^{2·bitrev(i)+1}`, and the image's value at
    /// `ψ^e` is this polynomial's at `ψ^{e·g}`.
    pub fn automorphism(&self, galois_elt: usize, ctx: &BfvContext) -> RnsPoly {
        let (two_n, log_n) = (2 * ctx.poly_degree(), ctx.poly_degree().trailing_zeros());
        let src = self.in_form(PolyForm::Ntt, ctx);
        let mut out = RnsPoly::zero(ctx, PolyForm::Ntt);
        for (dst, src) in out.limbs.iter_mut().zip(&src.limbs) {
            for (i, v) in dst.iter_mut().enumerate() {
                let e = (2 * bit_reverse(i, log_n) + 1) * galois_elt % two_n;
                *v = src[bit_reverse((e - 1) / 2, log_n)];
            }
        }
        out
    }

    /// Infinity norm of the centered coefficients, reconstructed over the
    /// full modulus. Only meaningful in coefficient form.
    ///
    /// Returns the bit length of the largest |coefficient| (0 for the zero
    /// polynomial). Used by noise-budget estimation.
    pub fn centered_norm_bits(&self, ctx: &BfvContext) -> u32 {
        assert_eq!(self.form, PolyForm::Coeff);
        (0..ctx.poly_degree())
            .map(|j| {
                let x = ctx.reconstruct(self, j);
                let magnitude = if x > ctx.q / 2 { ctx.q - x } else { x };
                u128::BITS - magnitude.leading_zeros()
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::presets;
    use hesgx_crypto::rng::ChaChaRng;

    fn ctx() -> std::sync::Arc<BfvContext> {
        BfvContext::new(presets::test_n256()).unwrap()
    }

    fn random_poly(ctx: &BfvContext, rng: &mut ChaChaRng) -> RnsPoly {
        let mut p = RnsPoly::zero(ctx, PolyForm::Coeff);
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            for v in p.limbs[i].iter_mut() {
                *v = rng.next_below(qi);
            }
        }
        p
    }

    #[test]
    fn ntt_roundtrip() {
        let ctx = ctx();
        let mut rng = ChaChaRng::from_seed(1);
        let original = random_poly(&ctx, &mut rng);
        let mut p = original.clone();
        p.to_ntt(&ctx);
        assert_eq!(p.form(), PolyForm::Ntt);
        p.to_coeff(&ctx);
        assert_eq!(p, original);
    }

    #[test]
    fn add_sub_cancel() {
        let ctx = ctx();
        let mut rng = ChaChaRng::from_seed(2);
        let a = random_poly(&ctx, &mut rng);
        let b = random_poly(&ctx, &mut rng);
        let mut c = a.clone();
        c.add_assign(&b, &ctx);
        let mut minus_b = b;
        minus_b.negate(&ctx);
        c.add_assign(&minus_b, &ctx);
        assert_eq!(c, a);
    }

    #[test]
    fn negate_twice_identity() {
        let ctx = ctx();
        let mut rng = ChaChaRng::from_seed(3);
        let a = random_poly(&ctx, &mut rng);
        let mut b = a.clone();
        b.negate(&ctx);
        b.negate(&ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn ntt_multiplication_is_ring_multiplication() {
        // (x+1)(x-1) = x^2 - 1 in R_q.
        let ctx = ctx();
        let n = ctx.poly_degree();
        let mut a_coeffs = vec![0i64; n];
        a_coeffs[0] = 1;
        a_coeffs[1] = 1;
        let mut b_coeffs = vec![0i64; n];
        b_coeffs[0] = -1;
        b_coeffs[1] = 1;
        let a = RnsPoly::from_signed(&ctx, &a_coeffs, PolyForm::Ntt);
        let b = RnsPoly::from_signed(&ctx, &b_coeffs, PolyForm::Ntt);
        let mut prod = a.mul_pointwise(&b, &ctx);
        prod.to_coeff(&ctx);
        let mut expect = vec![0i64; n];
        expect[0] = -1;
        expect[2] = 1;
        assert_eq!(prod, RnsPoly::from_signed(&ctx, &expect, PolyForm::Coeff));
    }

    #[test]
    fn from_signed_handles_negative() {
        let ctx = ctx();
        let n = ctx.poly_degree();
        let mut coeffs = vec![0i64; n];
        coeffs[0] = -5;
        let p = RnsPoly::from_signed(&ctx, &coeffs, PolyForm::Coeff);
        for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
            assert_eq!(p.limbs[i][0], qi - 5);
        }
    }

    #[test]
    fn centered_norm_small_poly() {
        let ctx = ctx();
        let n = ctx.poly_degree();
        let mut coeffs = vec![0i64; n];
        coeffs[3] = -1000;
        coeffs[7] = 500;
        let p = RnsPoly::from_signed(&ctx, &coeffs, PolyForm::Coeff);
        assert_eq!(p.centered_norm_bits(&ctx), 10); // |−1000| needs 10 bits
    }

    #[test]
    fn prepared_scale_matches_scale_u64() {
        let ctx = ctx();
        let mut rng = ChaChaRng::from_seed(5);
        let a = random_poly(&ctx, &mut rng);
        for scalar in [0u64, 1, 3, 1000] {
            let scales: Vec<(u64, u64)> = ctx
                .params()
                .coeff_moduli()
                .iter()
                .map(|&qi| {
                    let s = scalar % qi;
                    (s, crate::arith::shoup_precompute(s, qi))
                })
                .collect();
            let mut plain = a.clone();
            plain.scale_u64(scalar, &ctx);
            let mut prepared = a.clone();
            prepared.scale_u64_prepared(&scales, &ctx);
            assert_eq!(plain, prepared, "scalar {scalar}");
        }
    }

    #[test]
    fn fused_scale_acc_matches_clone_scale_negate_add() {
        let ctx = ctx();
        let mut rng = ChaChaRng::from_seed(6);
        let acc0 = random_poly(&ctx, &mut rng);
        let src = random_poly(&ctx, &mut rng);
        for (scalar, negate) in [(3u64, false), (3, true), (0, true), (7, false)] {
            let scales: Vec<(u64, u64)> = ctx
                .params()
                .coeff_moduli()
                .iter()
                .map(|&qi| {
                    let s = scalar % qi;
                    (s, crate::arith::shoup_precompute(s, qi))
                })
                .collect();
            // Reference: the pre-fusion temporary-ciphertext sequence.
            let mut term = src.clone();
            term.scale_u64(scalar, &ctx);
            if negate {
                term.negate(&ctx);
            }
            let mut want = acc0.clone();
            want.add_assign(&term, &ctx);
            // Fused path.
            let mut got = acc0.clone();
            got.scale_acc_prepared(&src, &scales, negate, &ctx);
            assert_eq!(got, want, "scalar {scalar} negate {negate}");
        }
    }

    /// The evaluation-form permutation is `x → x^g` on the coefficients
    /// (coefficient `j` to `j·g mod 2n`, negated past `n`) seen through the
    /// transform, for rotations and the row swap; and it is a ring map: it
    /// commutes with the product.
    #[test]
    fn automorphism_is_x_to_the_g_and_a_ring_map() {
        let ctx = ctx();
        let mut rng = ChaChaRng::from_seed(7);
        let a = random_poly(&ctx, &mut rng);
        let b = random_poly(&ctx, &mut rng);
        let n = ctx.poly_degree();
        for g in [3, 9, 27, 2 * n - 1, 2 * n - 3] {
            let mut oracle = RnsPoly::zero(&ctx, PolyForm::Coeff);
            let moduli = ctx.params().coeff_moduli();
            for ((dst, src), &qi) in oracle.limbs.iter_mut().zip(&a.limbs).zip(moduli) {
                for (j, &v) in src.iter().enumerate() {
                    let k = j * g % (2 * n);
                    if k < n {
                        dst[k] = v;
                    } else {
                        dst[k - n] = (qi - v) % qi;
                    }
                }
            }
            oracle.to_ntt(&ctx);
            let image = a.automorphism(g, &ctx);
            assert_eq!(image, oracle, "g = {g}");
            let mut b_ntt = b.clone();
            b_ntt.to_ntt(&ctx);
            let mut a_ntt = a.clone();
            a_ntt.to_ntt(&ctx);
            let product = a_ntt.mul_pointwise(&b_ntt, &ctx).automorphism(g, &ctx);
            let images = image.mul_pointwise(&b_ntt.automorphism(g, &ctx), &ctx);
            assert_eq!(product, images, "g = {g}");
        }
        // x → x^1 is the identity.
        let mut a_ntt = a.clone();
        a_ntt.to_ntt(&ctx);
        assert_eq!(a.automorphism(1, &ctx), a_ntt);
    }

    #[test]
    fn scale_u64_matches_repeated_add() {
        let ctx = ctx();
        let mut rng = ChaChaRng::from_seed(4);
        let a = random_poly(&ctx, &mut rng);
        let mut scaled = a.clone();
        scaled.scale_u64(3, &ctx);
        let mut sum = a.clone();
        sum.add_assign(&a, &ctx);
        sum.add_assign(&a, &ctx);
        assert_eq!(scaled, sum);
    }
}
