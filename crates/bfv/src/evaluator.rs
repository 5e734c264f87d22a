//! Homomorphic evaluation — the paper's `Add`, `Multiply`, and
//! relinearization (§II-B), plus plaintext add/multiply used by the
//! convolutional and fully connected layers.
//!
//! Ciphertext multiplication is exact: the tensor product is computed over the
//! integers in a wide CRT/NTT basis, rescaled by `round(t·x/q)` with 256-bit
//! arithmetic, and reduced back into RNS form — the textbook FV definition,
//! with no floating-point approximation.

use crate::arith::mul_mod;
use crate::ciphertext::Ciphertext;
use crate::context::{u256_mod_u64, BfvContext};
use crate::error::{BfvError, Result};
use crate::keys::EvaluationKeys;
use crate::plaintext::{NttPlaintext, Plaintext};
use crate::poly::{PolyForm, RnsPoly};
use hesgx_obs::prof;

use std::borrow::Cow;
use std::sync::Arc;

/// A scalar weight prepared for repeated ciphertext multiplication: the
/// per-limb `(|w| mod qi, shoup)` pairs plus the sign, computed once at
/// provisioning. Eliminates the per-call `u128` divisions that
/// [`RnsPoly::scale_u64`] pays inside `shoup_precompute`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainScalar {
    scales: Vec<(u64, u64)>,
    negate: bool,
    context_id: [u8; 32],
}

/// A bias constant prepared for repeated ciphertext addition: the per-limb
/// `Δ·c mod qi` values. Adding it needs no polynomial allocation and no
/// NTT — the transform of a constant polynomial is that constant in every
/// slot, so both representations add in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedBias {
    delta_c: Vec<u64>,
    context_id: [u8; 32],
}

/// Stateless evaluator over one context.
#[derive(Debug)]
pub struct Evaluator {
    ctx: Arc<BfvContext>,
}

impl Evaluator {
    /// Creates an evaluator for `ctx`.
    pub fn new(ctx: Arc<BfvContext>) -> Self {
        Evaluator { ctx }
    }

    /// The context this evaluator operates on.
    pub fn context(&self) -> &Arc<BfvContext> {
        &self.ctx
    }

    fn check(&self, ct: &Ciphertext) -> Result<()> {
        if ct.context_id() != self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        if ct.size() < 2 {
            return Err(BfvError::InvalidCiphertextSize(ct.size()));
        }
        Ok(())
    }

    fn check_plain(&self, plain: &Plaintext) -> Result<()> {
        if plain.len() > self.ctx.poly_degree() {
            return Err(BfvError::PlaintextTooLong {
                len: plain.len(),
                degree: self.ctx.poly_degree(),
            });
        }
        let t = self.ctx.params().plain_modulus();
        if let Some(&c) = plain.coeffs().iter().find(|&&c| c >= t) {
            return Err(BfvError::PlaintextOutOfRange(c));
        }
        Ok(())
    }

    /// Homomorphic addition: component-wise sum (sizes may differ).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.check(a)?;
        self.check(b)?;
        let (longer, shorter) = if a.size() >= b.size() { (a, b) } else { (b, a) };
        let mut out = longer.clone();
        for (dst, src) in out.polys.iter_mut().zip(shorter.polys.iter()) {
            dst.add_assign(&in_form(src, dst.form(), &self.ctx), &self.ctx);
        }
        Ok(out)
    }

    /// Homomorphic subtraction `a - b`.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let mut neg = b.clone();
        self.check(&neg)?;
        for poly in neg.polys.iter_mut() {
            poly.negate(&self.ctx);
        }
        self.add(a, &neg)
    }

    /// Homomorphic negation.
    pub fn negate(&self, a: &Ciphertext) -> Result<Ciphertext> {
        self.check(a)?;
        let mut out = a.clone();
        for poly in out.polys.iter_mut() {
            poly.negate(&self.ctx);
        }
        Ok(out)
    }

    /// Adds a plaintext: `c0 += Δ·m`.
    pub fn add_plain(&self, a: &Ciphertext, plain: &Plaintext) -> Result<Ciphertext> {
        self.check(a)?;
        self.check_plain(plain)?;
        let mut out = a.clone();
        let delta_m = RnsPoly::from_scaled_plain(&self.ctx, plain.coeffs());
        let form = out.polys[0].form();
        out.polys[0].add_assign(&in_form(&delta_m, form, &self.ctx), &self.ctx);
        Ok(out)
    }

    /// Subtracts a plaintext: `c0 -= Δ·m`.
    pub fn sub_plain(&self, a: &Ciphertext, plain: &Plaintext) -> Result<Ciphertext> {
        self.check(a)?;
        self.check_plain(plain)?;
        let mut out = a.clone();
        let delta_m = RnsPoly::from_scaled_plain(&self.ctx, plain.coeffs());
        let form = out.polys[0].form();
        out.polys[0].sub_assign(&in_form(&delta_m, form, &self.ctx), &self.ctx);
        Ok(out)
    }

    /// Multiplies by a plaintext polynomial (ciphertext × plaintext, `C × P`
    /// in the paper's Fig. 4 terminology).
    ///
    /// The plaintext is embedded with a centered lift (coefficients above
    /// `t/2` become negative) to keep noise growth proportional to the true
    /// magnitude of the weights.
    pub fn mul_plain(&self, a: &Ciphertext, plain: &Plaintext) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.mul_plain");
        self.mul_plain_ntt(a, &self.transform_plain_to_ntt(plain)?)
    }

    /// Computes the evaluation form of a plaintext — the centered lift and
    /// forward NTT — once, for reuse across [`Evaluator::mul_plain_ntt`]
    /// calls.
    pub fn transform_plain_to_ntt(&self, plain: &Plaintext) -> Result<NttPlaintext> {
        let _prof = prof::span("bfv.eval.plain_to_ntt");
        self.check_plain(plain)?;
        let ctx = &self.ctx;
        let t = ctx.params().plain_modulus();
        let mut signed = vec![0i64; ctx.poly_degree()];
        for (j, &c) in plain.coeffs().iter().enumerate() {
            signed[j] = if c > t / 2 {
                c as i64 - t as i64
            } else {
                c as i64
            };
        }
        Ok(NttPlaintext {
            poly: RnsPoly::from_signed(ctx, &signed, PolyForm::Ntt),
            context_id: *ctx.id(),
        })
    }

    /// Multiplies by a plaintext already in evaluation form
    /// ([`Evaluator::transform_plain_to_ntt`]): one forward and one inverse
    /// transform per ciphertext component, none of the plaintext.
    pub fn mul_plain_ntt(&self, a: &Ciphertext, plain: &NttPlaintext) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.mul_plain_ntt");
        self.check(a)?;
        if plain.context_id != *self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        let ctx = &self.ctx;
        let mut out = a.clone();
        for poly in out.polys.iter_mut() {
            poly.to_ntt(ctx);
            *poly = poly.mul_pointwise(&plain.poly, ctx);
            poly.to_coeff(ctx);
        }
        Ok(out)
    }

    /// `Σ aᵢ · pᵢ` accumulated in evaluation form: one forward transform per
    /// input component, one inverse per output component. The transforms are
    /// linear and sums mod `q` exact, so the result is bit-identical to
    /// [`Evaluator::mul_plain_ntt`] and [`Evaluator::add_inplace`] term by
    /// term, under any grouping of the terms.
    ///
    /// # Errors
    ///
    /// Fails on context mismatch and on an empty sum.
    pub fn dot_plain_ntt<'a>(
        &self,
        terms: impl IntoIterator<Item = (&'a Ciphertext, &'a NttPlaintext)>,
    ) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.dot_plain_ntt");
        let ctx = &self.ctx;
        let mut polys: Vec<RnsPoly> = Vec::new();
        for (a, plain) in terms {
            self.check(a)?;
            if plain.context_id != *ctx.id() {
                return Err(BfvError::ContextMismatch);
            }
            while polys.len() < a.polys.len() {
                polys.push(RnsPoly::zero(ctx, PolyForm::Ntt));
            }
            for (acc, src) in polys.iter_mut().zip(&a.polys) {
                acc.mul_acc(&in_form(src, PolyForm::Ntt, ctx), &plain.poly, ctx);
            }
        }
        if polys.is_empty() {
            return Err(BfvError::InvalidShape("empty dot product".into()));
        }
        polys.iter_mut().for_each(|poly| poly.to_coeff(ctx));
        Ok(Ciphertext {
            polys,
            context_id: *ctx.id(),
        })
    }

    /// Prepares a signed scalar weight for repeated multiplication
    /// ([`Evaluator::mul_plain_scalar`] /
    /// [`Evaluator::mul_plain_scalar_acc`]).
    ///
    /// # Errors
    ///
    /// Fails when `|value| >= t`, exactly like
    /// [`Evaluator::mul_plain_signed_scalar`].
    pub fn prepare_plain_scalar(&self, value: i64) -> Result<PlainScalar> {
        let t = self.ctx.params().plain_modulus();
        if value.unsigned_abs() >= t {
            return Err(BfvError::EncodeOutOfRange(value));
        }
        let magnitude = value.unsigned_abs();
        let scales = self
            .ctx
            .params()
            .coeff_moduli()
            .iter()
            .map(|&qi| {
                let s = magnitude % qi;
                (s, crate::arith::shoup_precompute(s, qi))
            })
            .collect();
        Ok(PlainScalar {
            scales,
            negate: value < 0,
            context_id: *self.ctx.id(),
        })
    }

    /// [`Evaluator::mul_plain_signed_scalar`] against a prepared scalar: no
    /// per-call Shoup precomputation. The clone is the one allocation per
    /// conv output cell — the initial accumulator, i.e. the output itself.
    ///
    /// # Errors
    ///
    /// Fails on context mismatch.
    pub fn mul_plain_scalar(&self, a: &Ciphertext, scalar: &PlainScalar) -> Result<Ciphertext> {
        self.check(a)?;
        if scalar.context_id != *self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        let mut out = a.clone();
        for poly in out.polys.iter_mut() {
            poly.scale_u64_prepared(&scalar.scales, &self.ctx);
            if scalar.negate {
                poly.negate(&self.ctx);
            }
        }
        Ok(out)
    }

    /// Fused multiply-accumulate `acc += a · w` against a prepared scalar:
    /// the convolution inner loop without the temporary ciphertext. The
    /// accumulated values are identical to
    /// [`Evaluator::mul_plain_signed_scalar`] followed by
    /// [`Evaluator::add_inplace`].
    ///
    /// # Errors
    ///
    /// Fails on context mismatch or when `acc` is smaller than `a` or their
    /// component forms disagree (never the case between the accumulator and
    /// operand of one conv/FC cell, which share provenance).
    pub fn mul_plain_scalar_acc(
        &self,
        acc: &mut Ciphertext,
        a: &Ciphertext,
        scalar: &PlainScalar,
    ) -> Result<()> {
        self.check(acc)?;
        self.check(a)?;
        if scalar.context_id != *self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        if acc.size() < a.size() {
            return Err(BfvError::InvalidCiphertextSize(acc.size()));
        }
        for (dst, src) in acc.polys.iter_mut().zip(a.polys.iter()) {
            if dst.form() != src.form() {
                return Err(BfvError::ContextMismatch);
            }
            dst.scale_acc_prepared(src, &scalar.scales, scalar.negate, &self.ctx);
        }
        Ok(())
    }

    /// Prepares a bias constant (already reduced mod `t`) for repeated
    /// in-place addition via [`Evaluator::add_plain_bias_inplace`].
    ///
    /// # Errors
    ///
    /// Fails when `residue >= t`.
    pub fn prepare_plain_bias(&self, residue: u64) -> Result<PreparedBias> {
        let t = self.ctx.params().plain_modulus();
        if residue >= t {
            return Err(BfvError::PlaintextOutOfRange(residue));
        }
        let delta_c = self
            .ctx
            .params()
            .coeff_moduli()
            .iter()
            .enumerate()
            .map(|(i, &qi)| mul_mod(residue % qi, self.ctx.delta_mod[i].0, qi))
            .collect();
        Ok(PreparedBias {
            delta_c,
            context_id: *self.ctx.id(),
        })
    }

    /// Adds a prepared bias in place: `c0 += Δ·c`. Allocation-free and
    /// NTT-free in both representations — in coefficient form only slot 0
    /// changes; in evaluation form the transform of a constant is that
    /// constant everywhere. Values are bit-identical to
    /// [`Evaluator::add_plain`] with `Plaintext::constant(c)`.
    pub fn add_plain_bias_inplace(&self, a: &mut Ciphertext, bias: &PreparedBias) -> Result<()> {
        self.check(a)?;
        if bias.context_id != *self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        let form = a.polys[0].form();
        for (i, &qi) in self.ctx.params().coeff_moduli().iter().enumerate() {
            let dc = bias.delta_c[i];
            let limb = &mut a.polys[0].limbs[i];
            match form {
                PolyForm::Coeff => limb[0] = crate::arith::add_mod(limb[0], dc, qi),
                PolyForm::Ntt => {
                    for v in limb.iter_mut() {
                        *v = crate::arith::add_mod(*v, dc, qi);
                    }
                }
            }
        }
        Ok(())
    }

    /// Multiplies by a signed scalar constant — the fast path for
    /// convolution/FC weights (`C × P` with a degree-0 plaintext).
    ///
    /// Semantically identical to `mul_plain` with a constant plaintext, but
    /// runs in `O(n)` per limb with no NTT: a constant polynomial scales every
    /// coefficient (and every SIMD slot) uniformly.
    pub fn mul_plain_signed_scalar(&self, a: &Ciphertext, value: i64) -> Result<Ciphertext> {
        self.check(a)?;
        let t = self.ctx.params().plain_modulus();
        if value.unsigned_abs() >= t {
            return Err(BfvError::EncodeOutOfRange(value));
        }
        let mut out = a.clone();
        for poly in out.polys.iter_mut() {
            poly.scale_u64(value.unsigned_abs(), &self.ctx);
            if value < 0 {
                poly.negate(&self.ctx);
            }
        }
        Ok(out)
    }

    /// In-place homomorphic addition `a += b` (sizes and forms must allow it;
    /// the common case in convolution accumulators).
    pub fn add_inplace(&self, a: &mut Ciphertext, b: &Ciphertext) -> Result<()> {
        self.check(a)?;
        self.check(b)?;
        // Grow `a` if `b` is larger.
        while a.polys.len() < b.polys.len() {
            let form = a.polys[0].form();
            a.polys.push(RnsPoly::zero(&self.ctx, form));
        }
        for (dst, src) in a.polys.iter_mut().zip(b.polys.iter()) {
            dst.add_assign(&in_form(src, dst.form(), &self.ctx), &self.ctx);
        }
        Ok(())
    }

    /// Homomorphic multiplication: the FV tensor product with exact
    /// `round(t·x/q)` rescaling. Output size is `a.size() + b.size() - 1`.
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.multiply");
        self.check(a)?;
        self.check(b)?;
        let ctx = &self.ctx;
        let wide_count = ctx.wide_primes.len();
        let n = ctx.poly_degree();

        // Lift both operands into the wide NTT basis.
        let a_wide: Vec<Vec<Vec<u64>>> = a.polys.iter().map(|p| self.to_wide_ntt(p)).collect();
        let b_wide: Vec<Vec<Vec<u64>>> = b.polys.iter().map(|p| self.to_wide_ntt(p)).collect();

        let out_size = a.size() + b.size() - 1;
        let mut out_polys = Vec::with_capacity(out_size);
        for k in 0..out_size {
            // Tensor component k = sum over i+j = k of a_i * b_j, in the wide
            // evaluation domain.
            let mut acc = vec![vec![0u64; n]; wide_count];
            for (i, a_i) in a_wide.iter().enumerate() {
                let Some(j) = k.checked_sub(i) else { continue };
                if j >= b.size() {
                    continue;
                }
                for (w, &wp) in ctx.wide_primes.iter().enumerate() {
                    let (ai, bj) = (&a_i[w], &b_wide[j][w]);
                    for x in 0..n {
                        let prod = mul_mod(ai[x], bj[x], wp);
                        acc[w][x] = crate::arith::add_mod(acc[w][x], prod, wp);
                    }
                }
            }
            // Back to coefficient form in the wide basis.
            for (w, table) in ctx.wide_tables.iter().enumerate() {
                table.inverse(&mut acc[w]);
            }
            // Rescale each coefficient by t/q and reduce into the q-basis.
            out_polys.push(self.rescale_from_wide(&acc));
        }

        Ok(Ciphertext {
            polys: out_polys,
            context_id: *ctx.id(),
        })
    }

    /// Homomorphic squaring (equivalent to `multiply(a, a)`).
    pub fn square(&self, a: &Ciphertext) -> Result<Ciphertext> {
        self.multiply(a, a)
    }

    /// Relinearizes a size-3 ciphertext back to size 2 using evaluation keys
    /// (base-`w` decomposition of `c2`).
    ///
    /// # Errors
    ///
    /// Fails when the ciphertext has size 2 already ([`BfvError::NothingToRelinearize`]),
    /// when contexts mismatch, or when the keys have the wrong component count.
    pub fn relinearize(&self, ct: &Ciphertext, evk: &EvaluationKeys) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.relinearize");
        self.check(ct)?;
        if evk.context_id() != self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        if ct.size() == 2 {
            return Err(BfvError::NothingToRelinearize);
        }
        if ct.size() != 3 {
            return Err(BfvError::InvalidCiphertextSize(ct.size()));
        }
        let ctx = &self.ctx;
        if evk.component_count() != ctx.decomp_count {
            return Err(BfvError::EvaluationKeyMismatch);
        }

        let dbc = ctx.params().decomposition_bit_count();
        let mask = if dbc == 64 {
            u64::MAX
        } else {
            (1u64 << dbc) - 1
        };
        let n = ctx.poly_degree();
        let limbs = ctx.limb_count();

        // Decompose c2 coefficient-wise in base 2^dbc over [0, q).
        let mut c2 = ct.polys[2].clone();
        c2.to_coeff(ctx);
        let mut digits: Vec<RnsPoly> = (0..ctx.decomp_count)
            .map(|_| RnsPoly::zero(ctx, PolyForm::Coeff))
            .collect();
        let mut residues = vec![0u64; limbs];
        for j in 0..n {
            for (r, limb) in residues.iter_mut().zip(&c2.limbs) {
                *r = limb[j];
            }
            let x = ctx.crt_reconstruct(&residues);
            for (k, digit_poly) in digits.iter_mut().enumerate() {
                let shifted = x.shr(k as u32 * dbc);
                let digit = shifted.0[0] & mask;
                for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
                    digit_poly.limbs[i][j] = digit % qi;
                }
            }
        }

        // c0' = c0 + Σ evk_k.0 ⊙ d_k ; c1' = c1 + Σ evk_k.1 ⊙ d_k.
        let mut acc0 = RnsPoly::zero(ctx, PolyForm::Ntt);
        let mut acc1 = RnsPoly::zero(ctx, PolyForm::Ntt);
        for (k, digit_poly) in digits.iter_mut().enumerate() {
            digit_poly.to_ntt(ctx);
            acc0.mul_acc(&evk.keys[k].0, digit_poly, ctx);
            acc1.mul_acc(&evk.keys[k].1, digit_poly, ctx);
        }
        acc0.to_coeff(ctx);
        acc1.to_coeff(ctx);

        let mut c0 = ct.polys[0].clone();
        c0.to_coeff(ctx);
        c0.add_assign(&acc0, ctx);
        let mut c1 = ct.polys[1].clone();
        c1.to_coeff(ctx);
        c1.add_assign(&acc1, ctx);

        Ok(Ciphertext {
            polys: vec![c0, c1],
            context_id: *ctx.id(),
        })
    }

    /// Lifts an RNS polynomial into the wide basis (centered representatives)
    /// and applies the wide forward NTT. Returns `[wide_prime][coeff]`.
    fn to_wide_ntt(&self, poly: &RnsPoly) -> Vec<Vec<u64>> {
        let ctx = &self.ctx;
        let n = ctx.poly_degree();
        let limbs = ctx.limb_count();
        let wide_count = ctx.wide_primes.len();
        let mut out = vec![vec![0u64; n]; wide_count];
        let mut p = poly.clone();
        p.to_coeff(ctx);
        let mut residues = vec![0u64; limbs];
        #[allow(clippy::needless_range_loop)] // j walks a column across out[w][j]
        for j in 0..n {
            for (r, limb) in residues.iter_mut().zip(&p.limbs) {
                *r = limb[j];
            }
            let x = ctx.crt_reconstruct(&residues);
            let negative = x > ctx.q_half;
            for (w, &wp) in ctx.wide_primes.iter().enumerate() {
                let mut r = u256_mod_u64(x, wp);
                if negative {
                    // value is x - q (negative); shift by q mod wp.
                    r = crate::arith::sub_mod(r, ctx.q_mod_wide[w], wp);
                }
                out[w][j] = r;
            }
        }
        for (w, table) in ctx.wide_tables.iter().enumerate() {
            table.forward(&mut out[w]);
        }
        out
    }

    /// CRT-reconstructs wide-basis coefficients, centers them, rescales by
    /// `round(t·x/q)`, and reduces into the q-basis RNS limbs.
    fn rescale_from_wide(&self, wide_coeffs: &[Vec<u64>]) -> RnsPoly {
        let ctx = &self.ctx;
        let n = ctx.poly_degree();
        let t = ctx.params().plain_modulus();
        let mut out = RnsPoly::zero(ctx, PolyForm::Coeff);
        let mut residues = vec![0u64; ctx.wide_primes.len()];
        for j in 0..n {
            for (w, limb) in wide_coeffs.iter().enumerate() {
                residues[w] = limb[j];
            }
            let y = ctx.crt_reconstruct_wide(&residues);
            let (mag, negative) = if y > ctx.p_half {
                (ctx.p_prod.wrapping_sub(y), true)
            } else {
                (y, false)
            };
            // s = round(t·mag / q) = floor((t·mag + q/2) / q).
            let (tm, carry) = mag.carrying_mul_u64(t);
            debug_assert_eq!(carry, 0, "t*|coeff| fits in 256 bits by validation");
            let (sum, overflow) = tm.overflowing_add(ctx.q_half);
            debug_assert!(!overflow);
            let (s, _) = ctx.rec_q.div_rem(sum);
            for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
                let mut r = u256_mod_u64(s, qi);
                if negative && r != 0 {
                    r = qi - r;
                }
                out.limbs[i][j] = r;
            }
        }
        out
    }
}

/// `src` in representation `form`: borrowed when it already is (the common
/// case — accumulator and operand share provenance), a converted copy only
/// when the forms differ.
fn in_form<'a>(src: &'a RnsPoly, form: PolyForm, ctx: &BfvContext) -> Cow<'a, RnsPoly> {
    if src.form() == form {
        return Cow::Borrowed(src);
    }
    let mut converted = src.clone();
    match form {
        PolyForm::Coeff => converted.to_coeff(ctx),
        PolyForm::Ntt => converted.to_ntt(ctx),
    }
    Cow::Owned(converted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decryptor::Decryptor;
    use crate::encryptor::Encryptor;
    use crate::keys::KeyGenerator;
    use crate::params::presets;
    use hesgx_crypto::rng::ChaChaRng;

    struct Fixture {
        ctx: Arc<BfvContext>,
        enc: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        evk: EvaluationKeys,
        rng: ChaChaRng,
    }

    fn fixture() -> Fixture {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(31);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let evk = keygen.evaluation_keys(&mut rng);
        Fixture {
            enc: Encryptor::new(ctx.clone(), keygen.public_key()),
            dec: Decryptor::new(ctx.clone(), keygen.secret_key()),
            eval: Evaluator::new(ctx.clone()),
            ctx,
            evk,
            rng,
        }
    }

    #[test]
    fn add_constants() {
        let mut f = fixture();
        let t = f.ctx.params().plain_modulus();
        let a = f
            .enc
            .encrypt(&Plaintext::constant(1234), &mut f.rng)
            .unwrap();
        let b = f
            .enc
            .encrypt(&Plaintext::constant(t - 34), &mut f.rng)
            .unwrap();
        let sum = f.eval.add(&a, &b).unwrap();
        assert_eq!(f.dec.decrypt(&sum).unwrap().coeffs()[0], 1200);
    }

    #[test]
    fn sub_and_negate() {
        let mut f = fixture();
        let t = f.ctx.params().plain_modulus();
        let a = f
            .enc
            .encrypt(&Plaintext::constant(100), &mut f.rng)
            .unwrap();
        let b = f.enc.encrypt(&Plaintext::constant(30), &mut f.rng).unwrap();
        let d = f.eval.sub(&a, &b).unwrap();
        assert_eq!(f.dec.decrypt(&d).unwrap().coeffs()[0], 70);
        let neg = f.eval.negate(&a).unwrap();
        assert_eq!(f.dec.decrypt(&neg).unwrap().coeffs()[0], t - 100);
    }

    #[test]
    fn plain_add_sub() {
        let mut f = fixture();
        let a = f
            .enc
            .encrypt(&Plaintext::constant(500), &mut f.rng)
            .unwrap();
        let added = f.eval.add_plain(&a, &Plaintext::constant(17)).unwrap();
        assert_eq!(f.dec.decrypt(&added).unwrap().coeffs()[0], 517);
        let subbed = f.eval.sub_plain(&added, &Plaintext::constant(17)).unwrap();
        assert_eq!(f.dec.decrypt(&subbed).unwrap().coeffs()[0], 500);
    }

    #[test]
    fn plain_multiplication() {
        let mut f = fixture();
        let a = f
            .enc
            .encrypt(&Plaintext::constant(123), &mut f.rng)
            .unwrap();
        let prod = f.eval.mul_plain(&a, &Plaintext::constant(11)).unwrap();
        assert_eq!(f.dec.decrypt(&prod).unwrap().coeffs()[0], 1353);
    }

    #[test]
    fn plain_multiplication_negative_weight() {
        let mut f = fixture();
        let t = f.ctx.params().plain_modulus();
        let a = f.enc.encrypt(&Plaintext::constant(10), &mut f.rng).unwrap();
        // -3 mod t
        let prod = f.eval.mul_plain(&a, &Plaintext::constant(t - 3)).unwrap();
        assert_eq!(f.dec.decrypt(&prod).unwrap().coeffs()[0], t - 30);
    }

    #[test]
    fn ciphertext_multiplication() {
        let mut f = fixture();
        let a = f.enc.encrypt(&Plaintext::constant(20), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&Plaintext::constant(30), &mut f.rng).unwrap();
        let prod = f.eval.multiply(&a, &b).unwrap();
        assert_eq!(prod.size(), 3);
        assert_eq!(f.dec.decrypt(&prod).unwrap().coeffs()[0], 600);
    }

    #[test]
    fn square_matches_multiply() {
        let mut f = fixture();
        let a = f.enc.encrypt(&Plaintext::constant(25), &mut f.rng).unwrap();
        let sq = f.eval.square(&a).unwrap();
        assert_eq!(f.dec.decrypt(&sq).unwrap().coeffs()[0], 625);
    }

    #[test]
    fn multiplication_of_polynomials() {
        // (1 + 2x) * (3 + x) = 3 + 7x + 2x^2.
        let mut f = fixture();
        let a = f
            .enc
            .encrypt(&Plaintext::from_coeffs(vec![1, 2]), &mut f.rng)
            .unwrap();
        let b = f
            .enc
            .encrypt(&Plaintext::from_coeffs(vec![3, 1]), &mut f.rng)
            .unwrap();
        let prod = f.eval.multiply(&a, &b).unwrap();
        let m = f.dec.decrypt(&prod).unwrap();
        assert_eq!(&m.coeffs()[..3], &[3, 7, 2]);
    }

    #[test]
    fn relinearization_preserves_value() {
        let mut f = fixture();
        let a = f.enc.encrypt(&Plaintext::constant(40), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&Plaintext::constant(50), &mut f.rng).unwrap();
        let prod = f.eval.multiply(&a, &b).unwrap();
        let relin = f.eval.relinearize(&prod, &f.evk).unwrap();
        assert_eq!(relin.size(), 2);
        assert_eq!(f.dec.decrypt(&relin).unwrap().coeffs()[0], 2000);
    }

    #[test]
    fn relinearize_size_two_errors() {
        let mut f = fixture();
        let a = f.enc.encrypt(&Plaintext::constant(1), &mut f.rng).unwrap();
        assert_eq!(
            f.eval.relinearize(&a, &f.evk),
            Err(BfvError::NothingToRelinearize)
        );
    }

    #[test]
    fn noise_budget_decreases_with_multiplication() {
        let mut f = fixture();
        let a = f.enc.encrypt(&Plaintext::constant(2), &mut f.rng).unwrap();
        let fresh = f.dec.invariant_noise_budget(&a).unwrap();
        let sq = f.eval.square(&a).unwrap();
        let after = f.dec.invariant_noise_budget(&sq).unwrap();
        assert!(
            after < fresh,
            "square must consume budget: {fresh} -> {after}"
        );
        assert!(after > 0, "one square must stay decryptable");
    }

    #[test]
    fn depth_two_multiplication_chain() {
        // Depth 2 needs a wider modulus than the default test preset.
        let params = crate::params::EncryptionParameters::builder()
            .poly_degree(256)
            .coeff_moduli(crate::arith::primes_congruent_one(50, 512, 2))
            .plain_modulus(crate::arith::smallest_prime_congruent_one_above(
                1 << 12,
                512,
            ))
            .build()
            .unwrap();
        let ctx = BfvContext::new(params).unwrap();
        let mut rng = ChaChaRng::from_seed(77);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let mut f = Fixture {
            enc: Encryptor::new(ctx.clone(), keygen.public_key()),
            dec: Decryptor::new(ctx.clone(), keygen.secret_key()),
            eval: Evaluator::new(ctx.clone()),
            evk: keygen.evaluation_keys(&mut rng),
            ctx,
            rng,
        };
        let a = f.enc.encrypt(&Plaintext::constant(3), &mut f.rng).unwrap();
        let sq = f.eval.square(&a).unwrap();
        let relin = f.eval.relinearize(&sq, &f.evk).unwrap();
        let sq2 = f.eval.square(&relin).unwrap();
        let m = f.dec.decrypt(&sq2).unwrap();
        assert_eq!(m.coeffs()[0], 81);
    }

    #[test]
    fn mul_scalar_matches_plain() {
        let mut f = fixture();
        let a = f.enc.encrypt(&Plaintext::constant(7), &mut f.rng).unwrap();
        let s = f.eval.mul_plain_signed_scalar(&a, 9).unwrap();
        assert_eq!(f.dec.decrypt(&s).unwrap().coeffs()[0], 63);
        assert_eq!(s, f.eval.mul_plain(&a, &Plaintext::constant(9)).unwrap());
    }

    #[test]
    fn homomorphism_with_polynomial_plaintexts() {
        let mut f = fixture();
        // ct(m1) * pt(m2) where m2 = 2 + x.
        let a = f
            .enc
            .encrypt(&Plaintext::from_coeffs(vec![5, 1]), &mut f.rng)
            .unwrap();
        let prod = f
            .eval
            .mul_plain(&a, &Plaintext::from_coeffs(vec![2, 1]))
            .unwrap();
        // (5 + x)(2 + x) = 10 + 7x + x^2.
        let m = f.dec.decrypt(&prod).unwrap();
        assert_eq!(&m.coeffs()[..3], &[10, 7, 1]);
    }
}

#[cfg(test)]
mod scalar_tests {
    use super::*;
    use crate::decryptor::Decryptor;
    use crate::encryptor::Encryptor;
    use crate::keys::KeyGenerator;
    use crate::params::presets;
    use hesgx_crypto::rng::ChaChaRng;

    #[test]
    fn signed_scalar_matches_mul_plain() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(91);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
        let eval = Evaluator::new(ctx.clone());
        let t = ctx.params().plain_modulus();
        let a = enc.encrypt(&Plaintext::constant(11), &mut rng).unwrap();
        for v in [-7i64, -1, 0, 1, 13] {
            let fast = eval.mul_plain_signed_scalar(&a, v).unwrap();
            let residue = if v >= 0 { v as u64 } else { t - (-v) as u64 };
            let slow = eval
                .mul_plain(&a, &Plaintext::constant(residue % t))
                .unwrap();
            assert_eq!(
                dec.decrypt(&fast).unwrap().coeffs()[0],
                dec.decrypt(&slow).unwrap().coeffs()[0],
                "scalar {v}"
            );
        }
    }

    #[test]
    fn add_inplace_matches_add() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(92);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
        let eval = Evaluator::new(ctx.clone());
        let a = enc.encrypt(&Plaintext::constant(100), &mut rng).unwrap();
        let b = enc.encrypt(&Plaintext::constant(23), &mut rng).unwrap();
        let mut inplace = a.clone();
        eval.add_inplace(&mut inplace, &b).unwrap();
        assert_eq!(dec.decrypt(&inplace).unwrap().coeffs()[0], 123);
    }

    #[test]
    fn cached_ntt_plain_matches_mul_plain_bitwise() {
        // `mul_plain` is `mul_plain_ntt` of the transform by construction, so
        // both are pinned against the schoolbook convolution of each limb
        // with the centered plaintext.
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(94);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let eval = Evaluator::new(ctx.clone());
        let t = ctx.params().plain_modulus();
        let a = enc
            .encrypt(&Plaintext::from_coeffs(vec![5, 1, 3]), &mut rng)
            .unwrap();
        for plain in [
            Plaintext::constant(11),
            Plaintext::constant(t - 3),
            Plaintext::from_coeffs(vec![2, 1, t - 1, 0, 7]),
            Plaintext::zero(),
        ] {
            let cached = eval.transform_plain_to_ntt(&plain).unwrap();
            let got = eval.mul_plain_ntt(&a, &cached).unwrap();
            assert_eq!(got, eval.mul_plain(&a, &plain).unwrap());
            for (poly, src) in got.polys.iter().zip(&a.polys) {
                assert_eq!(poly.form(), PolyForm::Coeff);
                for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
                    let mut centered = vec![0u64; ctx.poly_degree()];
                    for (m, &c) in centered.iter_mut().zip(plain.coeffs()) {
                        *m = if c > t / 2 { qi - (t - c) } else { c };
                    }
                    assert_eq!(
                        poly.limbs[i],
                        crate::ntt::negacyclic_multiply_naive(&src.limbs[i], &centered, qi),
                        "limb {i} diverged for {:?}",
                        plain.coeffs()
                    );
                }
            }
        }
    }

    #[test]
    fn dot_plain_ntt_is_the_term_by_term_sum_bitwise_under_any_grouping() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(96);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let eval = Evaluator::new(ctx.clone());
        let t = ctx.params().plain_modulus();
        let mut terms = Vec::new();
        for i in 0..5u64 {
            let message = Plaintext::from_coeffs((0..7).map(|j| (i * 7 + j) % t).collect());
            let weights = (0..256).map(|j| (j * (i + 3) * 977) % t).collect();
            let weights = eval
                .transform_plain_to_ntt(&Plaintext::from_coeffs(weights))
                .unwrap();
            terms.push((enc.encrypt(&message, &mut rng).unwrap(), weights));
        }
        // One term in evaluation form already, one of size 3.
        terms[1].0.polys.iter_mut().for_each(|p| p.to_ntt(&ctx));
        terms[3].0 = eval.square(&terms[3].0).unwrap();
        let refs = |range: std::ops::Range<usize>| terms[range].iter().map(|(a, p)| (a, p));
        let mut sum = eval.mul_plain_ntt(&terms[0].0, &terms[0].1).unwrap();
        for (a, plain) in refs(1..5) {
            let term = eval.mul_plain_ntt(a, plain).unwrap();
            eval.add_inplace(&mut sum, &term).unwrap();
        }
        let whole = eval.dot_plain_ntt(refs(0..5)).unwrap();
        assert_eq!(whole, sum);
        assert!(whole.polys.iter().all(|p| p.form() == PolyForm::Coeff));
        // The size-3 term first or last, the sum split anywhere: same bits.
        for split in 1..5 {
            let mut grouped = eval.dot_plain_ntt(refs(split..5)).unwrap();
            let head = eval.dot_plain_ntt(refs(0..split)).unwrap();
            eval.add_inplace(&mut grouped, &head).unwrap();
            assert_eq!(grouped, sum, "split at {split}");
        }
        assert!(matches!(
            eval.dot_plain_ntt(refs(0..0)),
            Err(BfvError::InvalidShape(_))
        ));
        let other = Evaluator::new(BfvContext::new(presets::paper_n1024()).unwrap());
        assert!(matches!(
            other.dot_plain_ntt(refs(0..1)),
            Err(BfvError::ContextMismatch)
        ));
    }

    #[test]
    fn prepared_scalar_matches_signed_scalar_bitwise() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(95);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let eval = Evaluator::new(ctx.clone());
        let a = enc.encrypt(&Plaintext::constant(11), &mut rng).unwrap();
        let acc0 = enc.encrypt(&Plaintext::constant(2), &mut rng).unwrap();
        for v in [-7i64, -1, 0, 1, 13] {
            let prepared = eval.prepare_plain_scalar(v).unwrap();
            // One-shot multiply.
            assert_eq!(
                eval.mul_plain_scalar(&a, &prepared).unwrap(),
                eval.mul_plain_signed_scalar(&a, v).unwrap(),
                "scalar {v}"
            );
            // Fused accumulate vs multiply-then-add.
            let mut fused = acc0.clone();
            eval.mul_plain_scalar_acc(&mut fused, &a, &prepared)
                .unwrap();
            let term = eval.mul_plain_signed_scalar(&a, v).unwrap();
            let mut want = acc0.clone();
            eval.add_inplace(&mut want, &term).unwrap();
            assert_eq!(fused, want, "fused acc, scalar {v}");
        }
        let t = ctx.params().plain_modulus() as i64;
        assert!(eval.prepare_plain_scalar(t).is_err());
    }

    #[test]
    fn prepared_bias_matches_add_plain_bitwise() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(96);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let eval = Evaluator::new(ctx.clone());
        let t = ctx.params().plain_modulus();
        let base = enc.encrypt(&Plaintext::constant(500), &mut rng).unwrap();
        for residue in [0u64, 17, t - 1] {
            let bias = eval.prepare_plain_bias(residue).unwrap();
            // Coefficient-form ciphertext.
            let mut got = base.clone();
            eval.add_plain_bias_inplace(&mut got, &bias).unwrap();
            let want = eval
                .add_plain(&base, &Plaintext::constant(residue))
                .unwrap();
            assert_eq!(got, want, "coeff-form bias {residue}");
            // NTT-form ciphertext (the transform of a constant is that
            // constant everywhere — pinned here against full add_plain).
            let mut ntt_base = base.clone();
            for poly in ntt_base.polys.iter_mut() {
                poly.to_ntt(&ctx);
            }
            let mut got = ntt_base.clone();
            eval.add_plain_bias_inplace(&mut got, &bias).unwrap();
            let want = eval
                .add_plain(&ntt_base, &Plaintext::constant(residue))
                .unwrap();
            assert_eq!(got, want, "ntt-form bias {residue}");
        }
        assert!(eval.prepare_plain_bias(t).is_err());
    }

    #[test]
    fn scalar_rejects_out_of_range() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(93);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let eval = Evaluator::new(ctx.clone());
        let t = ctx.params().plain_modulus() as i64;
        let a = enc.encrypt(&Plaintext::constant(1), &mut rng).unwrap();
        assert!(eval.mul_plain_signed_scalar(&a, t).is_err());
        assert!(eval.mul_plain_signed_scalar(&a, -t).is_err());
    }
}
