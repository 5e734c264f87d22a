//! Homomorphic evaluation — the paper's `Add`, `Multiply`, and
//! relinearization (§II-B), plus plaintext add/multiply used by the
//! convolutional and fully connected layers, and slot rotations.
//!
//! Ciphertext multiplication is exact: the tensor product of the centered
//! operands is computed over the integers — held as residues modulo the
//! limbs of `q` and a few extension primes — and rescaled by `round(t·x/q)`
//! in 64/128-bit words (`crate::tensor`), the textbook FV definition with no
//! floating-point approximation and no wide integer.

use crate::arith::mul_mod;
use crate::ciphertext::Ciphertext;
use crate::context::BfvContext;
use crate::error::{BfvError, Result};
use crate::keys::{orbit_steps, Automorphism, EvaluationKeys, GaloisKeys};
use crate::plaintext::{NttPlaintext, Plaintext};
use crate::poly::{PolyForm, RnsPoly};
use crate::tensor::MAX_TENSOR_TERMS;
use hesgx_obs::prof;

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

/// A plaintext prepared for repeated addition to `c0`: `Δ·m` in the form
/// that adds without a transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedBias {
    delta_m: Addend,
    context_id: [u8; 32],
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Addend {
    /// A constant `c`: the per-limb `Δ·c mod qi`, slot 0 in coefficient
    /// form and every slot in evaluation form (the transform of a constant
    /// is that constant everywhere) — it adds in place to either.
    Constant(Vec<u64>),
    /// Any other plaintext: its polynomial in evaluation form, where the
    /// ciphertexts it is added to live.
    Poly(RnsPoly),
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

    /// Homomorphic addition: component-wise sum (sizes may differ).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.check(a)?;
        self.check(b)?;
        let (longer, shorter) = if a.size() >= b.size() { (a, b) } else { (b, a) };
        let mut out = longer.clone();
        for (dst, src) in out.polys.iter_mut().zip(shorter.polys.iter()) {
            dst.add_assign(&src.in_form(dst.form(), &self.ctx), &self.ctx);
        }
        Ok(out)
    }

    /// Adds a plaintext: `c0 += Δ·m`.
    pub fn add_plain(&self, a: &Ciphertext, plain: &Plaintext) -> Result<Ciphertext> {
        self.check(a)?;
        plain.check(&self.ctx)?;
        let mut out = a.clone();
        let delta_m = RnsPoly::from_scaled_plain(&self.ctx, plain.coeffs());
        let form = out.polys[0].form();
        out.polys[0].add_assign(&delta_m.in_form(form, &self.ctx), &self.ctx);
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
        plain.check(&self.ctx)?;
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
    /// ([`Evaluator::transform_plain_to_ntt`]): the one-term
    /// [`Evaluator::dot_plain_ntt`].
    ///
    /// # Errors
    ///
    /// Fails on context mismatch.
    pub fn mul_plain_ntt(&self, a: &Ciphertext, plain: &NttPlaintext) -> Result<Ciphertext> {
        self.dot_plain_ntt([(a, plain)])
    }

    /// `Σ aᵢ · pᵢ` accumulated in evaluation form, where the result stays:
    /// one forward transform per input component in coefficient form, none
    /// for one already in evaluation form, none of the output. Sums mod `q`
    /// are exact, so the result is bit-identical to
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
                acc.mul_acc(&src.in_form(PolyForm::Ntt, ctx), &plain.poly, ctx);
            }
        }
        if polys.is_empty() {
            return Err(BfvError::InvalidShape("empty dot product".into()));
        }
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
    /// Fails on context mismatch, when `acc` is smaller than `a`, and
    /// ([`BfvError::InvalidShape`]) when their component forms disagree —
    /// never the case between the accumulator and operand of one conv/FC
    /// cell, which share provenance, unless a host relabelled a form.
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
                let forms = (src.form(), dst.form());
                return Err(BfvError::InvalidShape(format!("{forms:?} accumulation")));
            }
            dst.scale_acc_prepared(src, &scalar.scales, scalar.negate, &self.ctx);
        }
        Ok(())
    }

    /// Prepares a plaintext (reduced mod `t`) for repeated in-place
    /// addition via [`Evaluator::add_plain_bias_inplace`].
    ///
    /// # Errors
    ///
    /// Fails when the plaintext is longer than the ring degree or not
    /// reduced modulo `t`.
    pub fn prepare_plain_bias(&self, plain: &Plaintext) -> Result<PreparedBias> {
        plain.check(&self.ctx)?;
        let ctx = &self.ctx;
        let delta_m = if plain.significant_len() <= 1 {
            let c = plain.coeffs().first().copied().unwrap_or(0);
            let moduli = ctx.params().coeff_moduli().iter().enumerate();
            Addend::Constant(
                moduli
                    .map(|(i, &qi)| mul_mod(c % qi, ctx.delta_mod[i].0, qi))
                    .collect(),
            )
        } else {
            let mut poly = RnsPoly::from_scaled_plain(ctx, plain.coeffs());
            poly.to_ntt(ctx);
            Addend::Poly(poly)
        };
        Ok(PreparedBias {
            delta_m,
            context_id: *ctx.id(),
        })
    }

    /// Adds a prepared plaintext in place: `c0 += Δ·m`. Allocation-free
    /// and NTT-free for a constant in either representation and for any
    /// plaintext in evaluation form. Values are bit-identical to
    /// [`Evaluator::add_plain`].
    pub fn add_plain_bias_inplace(&self, a: &mut Ciphertext, bias: &PreparedBias) -> Result<()> {
        self.check(a)?;
        if bias.context_id != *self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        let c0 = &mut a.polys[0];
        let form = c0.form();
        let delta_c = match &bias.delta_m {
            Addend::Constant(delta_c) => delta_c,
            Addend::Poly(delta_m) => {
                c0.add_assign(&delta_m.in_form(form, &self.ctx), &self.ctx);
                return Ok(());
            }
        };
        for (i, &qi) in self.ctx.params().coeff_moduli().iter().enumerate() {
            let (dc, limb) = (delta_c[i], &mut c0.limbs[i]);
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
            dst.add_assign(&src.in_form(dst.form(), &self.ctx), &self.ctx);
        }
        Ok(())
    }

    /// Homomorphic multiplication: the FV tensor product with exact
    /// `round(t·x/q)` rescaling. Output size is `a.size() + b.size() - 1`.
    ///
    /// # Errors
    ///
    /// Fails on context mismatch and when both operands hold more than
    /// eight polynomials (the extension basis is sized for sums of eight
    /// products).
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.multiply");
        self.check(a)?;
        self.check(b)?;
        let a_ext: Vec<_> = a.polys.iter().map(|p| self.lift_ntt(p)).collect();
        let b_ext: Vec<_> = b.polys.iter().map(|p| self.lift_ntt(p)).collect();
        self.tensor(&a_ext, &b_ext, |i, j| {
            (i < a.size() && j < b.size()).then_some(false)
        })
    }

    /// Homomorphic squaring: bit-identical to `multiply(a, a)`, with each
    /// component lifted once and the symmetric products `aᵢ·aⱼ`, `i < j`,
    /// computed once and doubled.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::multiply`].
    pub fn square(&self, a: &Ciphertext) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.multiply");
        self.check(a)?;
        let ext: Vec<_> = a.polys.iter().map(|p| self.lift_ntt(p)).collect();
        self.tensor(&ext, &ext, |i, j| (i <= j && j < a.size()).then_some(i < j))
    }

    /// `poly`, centered, in evaluation form modulo every limb of `q` (its
    /// own residues — centering changes nothing modulo `qᵢ`) followed by
    /// every prime of the extension basis.
    fn lift_ntt(&self, poly: &RnsPoly) -> Vec<Vec<u64>> {
        let ctx = &self.ctx;
        let coeff = poly.in_form(PolyForm::Coeff, ctx);
        let centered: Vec<u128> = (0..ctx.poly_degree())
            .map(|j| ctx.reconstruct(&coeff, j))
            .collect();
        let mut rows = match poly.form() {
            PolyForm::Ntt => poly.limbs.clone(),
            PolyForm::Coeff => {
                let mut own = coeff.into_owned();
                own.to_ntt(ctx);
                own.limbs
            }
        };
        rows.extend(ctx.tensor.lift_ntt(&centered));
        rows
    }

    /// The scaled tensor product of lifted operands: component `k` is
    /// `round(t/q · Σ aᵢ·bⱼ)` over the `i + j = k` for which `doubled(i, j)`
    /// is `Some`, the product counted twice when it says so.
    fn tensor(
        &self,
        a: &[Vec<Vec<u64>>],
        b: &[Vec<Vec<u64>>],
        doubled: impl Fn(usize, usize) -> Option<bool>,
    ) -> Result<Ciphertext> {
        let ctx = &self.ctx;
        if a.len().min(b.len()) > MAX_TENSOR_TERMS {
            return Err(BfvError::InvalidCiphertextSize(a.len().min(b.len())));
        }
        let tables = || ctx.ntt_tables.iter().chain(ctx.tensor.tables());
        let polys = (0..a.len() + b.len() - 1)
            .map(|k| {
                let terms: Vec<(usize, usize, bool)> = (0..=k)
                    .filter_map(|i| doubled(i, k - i).map(|twice| (i, k - i, twice)))
                    .collect();
                // A product is below 2^124 and at most MAX_TENSOR_TERMS of
                // them (a doubled one counts twice) are summed unreduced.
                let rows: Vec<Vec<u64>> = tables()
                    .enumerate()
                    .map(|(limb, table)| {
                        let mut sums = vec![0u128; table.len()];
                        for &(i, j, twice) in &terms {
                            for ((s, &x), &y) in sums.iter_mut().zip(&a[i][limb]).zip(&b[j][limb]) {
                                *s += (x as u128 * y as u128) << twice as u32;
                            }
                        }
                        let barrett = table.barrett();
                        let mut row: Vec<u64> = sums.iter().map(|&s| barrett.reduce(s)).collect();
                        table.inverse(&mut row);
                        row
                    })
                    .collect();
                RnsPoly {
                    limbs: ctx.tensor.scale_round(&rows),
                    form: PolyForm::Coeff,
                }
            })
            .collect();
        Ok(Ciphertext {
            polys,
            context_id: *ctx.id(),
        })
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
        let c2 = ct.polys[2].in_form(PolyForm::Coeff, ctx);
        let switched = self.key_switch(&c2, &evk.keys)?;
        let polys = (switched.into_iter().zip(&ct.polys))
            .map(|(mut acc, c)| {
                acc.to_coeff(ctx);
                acc.add_assign(&c.in_form(PolyForm::Coeff, ctx), ctx);
                acc
            })
            .collect();
        Ok(Ciphertext {
            polys,
            context_id: *ctx.id(),
        })
    }

    /// Permutes the slots of a size-2 ciphertext by `automorphism`, switched
    /// back to `s` with `gk`; the result is in evaluation form.
    ///
    /// # Errors
    ///
    /// [`BfvError::ContextMismatch`], [`BfvError::MissingGaloisKey`], or
    /// [`BfvError::InvalidCiphertextSize`] for a ciphertext not of size 2.
    pub fn apply_galois(
        &self,
        ct: &Ciphertext,
        automorphism: Automorphism,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.eval.apply_galois");
        self.check(ct)?;
        if gk.context_id != *self.ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        if ct.size() != 2 {
            return Err(BfvError::InvalidCiphertextSize(ct.size()));
        }
        let ctx = &self.ctx;
        let galois_elt = automorphism.galois_elt(ctx.poly_degree());
        let keys = gk.keys.iter().find(|(g, _)| *g == galois_elt);
        let (_, keys) = keys.ok_or(BfvError::MissingGaloisKey(galois_elt))?;
        let mut c1 = ct.polys[1].automorphism(galois_elt, ctx);
        c1.to_coeff(ctx);
        let [mut c0, c1] = self.key_switch(&c1, &keys.keys)?;
        c0.add_assign(&ct.polys[0].automorphism(galois_elt, ctx), ctx);
        Ok(Ciphertext {
            polys: vec![c0, c1],
            context_id: *ctx.id(),
        })
    }

    /// Rotates both rows of the batch matrix left by `step`; fails as
    /// [`Evaluator::apply_galois`] does.
    pub fn rotate_rows(&self, ct: &Ciphertext, step: usize, gk: &GaloisKeys) -> Result<Ciphertext> {
        self.apply_galois(ct, Automorphism::RotateRows(step), gk)
    }

    /// The sum of `ct` over the full orbit of the row rotation by `stride`, a
    /// power of two dividing `n/2`: each slot gets the sum of the slots of its
    /// row that multiples of `stride` reach ([`crate::keys::orbit_steps`]).
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for another stride; as [`Evaluator::rotate_rows`].
    pub fn rotate_and_sum(
        &self,
        ct: &Ciphertext,
        stride: usize,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext> {
        let row = self.ctx.poly_degree() / 2;
        if !stride.is_power_of_two() || stride > row {
            return Err(BfvError::InvalidShape(format!("orbit stride {stride}")));
        }
        let mut acc = ct.clone();
        for step in orbit_steps(row * 2, stride) {
            let rotated = self.rotate_rows(&acc, step, gk)?;
            self.add_inplace(&mut acc, &rotated)?;
        }
        Ok(acc)
    }

    /// The key switch of relinearization and the Galois automorphisms:
    /// `(Σ b_k ⊙ d_k, Σ a_k ⊙ d_k)`, in evaluation form, over the base-`2^dbc`
    /// digits `d_k` of coefficient-form `c` in `[0, q)`. The sums stay
    /// unreduced between reductions: a product is below 2^124.
    ///
    /// # Errors
    ///
    /// [`BfvError::EvaluationKeyMismatch`] for a key of another length.
    fn key_switch(&self, c: &RnsPoly, keys: &[(RnsPoly, RnsPoly)]) -> Result<[RnsPoly; 2]> {
        const LAZY_TERMS: usize = 8;
        let ctx = &self.ctx;
        if keys.len() != ctx.decomp_count {
            return Err(BfvError::EvaluationKeyMismatch);
        }
        let dbc = ctx.params().decomposition_bit_count();
        let mask = (1u64 << dbc) - 1;
        let n = ctx.poly_degree();
        let c: Vec<u128> = (0..n).map(|j| ctx.reconstruct(c, j)).collect();
        let zero = vec![vec![0u128; n]; ctx.limb_count()];
        let mut sums = [zero.clone(), zero];
        let mut digit = RnsPoly::zero(ctx, PolyForm::Coeff);
        for (k, (key0, key1)) in keys.iter().enumerate() {
            // A digit is its own residue modulo every limb wider than the base.
            digit.form = PolyForm::Coeff;
            for (limb, table) in digit.limbs.iter_mut().zip(&ctx.ntt_tables) {
                for (v, &x) in limb.iter_mut().zip(&c) {
                    let d = (x >> (k as u32 * dbc)) as u64 & mask;
                    *v = if d < table.modulus() {
                        d
                    } else {
                        table.barrett().reduce(d as u128)
                    };
                }
            }
            digit.to_ntt(ctx);
            for (sums, key) in sums.iter_mut().zip([key0, key1]) {
                for ((sum, key), digit) in sums.iter_mut().zip(&key.limbs).zip(&digit.limbs) {
                    for ((s, &a), &d) in sum.iter_mut().zip(key).zip(digit) {
                        *s += a as u128 * d as u128;
                    }
                }
                if (k + 1) % LAZY_TERMS == 0 {
                    for (sum, table) in sums.iter_mut().zip(&ctx.ntt_tables) {
                        sum.iter_mut()
                            .for_each(|s| *s = table.barrett().reduce(*s) as u128);
                    }
                }
            }
        }
        Ok(sums.map(|sums| {
            let limbs = (sums.iter().zip(&ctx.ntt_tables))
                .map(|(sum, table)| sum.iter().map(|&s| table.barrett().reduce(s)).collect())
                .collect();
            RnsPoly {
                limbs,
                form: PolyForm::Ntt,
            }
        }))
    }
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
    fn plain_add_sub() {
        let mut f = fixture();
        let a = f
            .enc
            .encrypt(&Plaintext::constant(500), &mut f.rng)
            .unwrap();
        let added = f.eval.add_plain(&a, &Plaintext::constant(17)).unwrap();
        assert_eq!(f.dec.decrypt(&added).unwrap().coeffs()[0], 517);
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
        let mut product = f.eval.mul_plain(&a, &Plaintext::constant(9)).unwrap();
        product.polys.iter_mut().for_each(|p| p.to_coeff(&f.ctx));
        assert_eq!(s, product);
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
                assert_eq!(poly.form(), PolyForm::Ntt);
                let poly = poly.in_form(PolyForm::Coeff, &ctx);
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
        assert!(whole.polys.iter().all(|p| p.form() == PolyForm::Ntt));
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
        let mut ntt_base = base.clone();
        for poly in ntt_base.polys.iter_mut() {
            poly.to_ntt(&ctx);
        }
        // Constants (the transform of a constant is that constant
        // everywhere — pinned here against full add_plain) and a polynomial
        // prepared in evaluation form, added to either form.
        let polynomial = Plaintext::from_coeffs(vec![4, 0, t - 1, 9]);
        for plain in [0u64, 17, t - 1]
            .map(Plaintext::constant)
            .into_iter()
            .chain([polynomial])
        {
            let bias = eval.prepare_plain_bias(&plain).unwrap();
            for (form, base) in [("coeff", &base), ("ntt", &ntt_base)] {
                let mut got = base.clone();
                eval.add_plain_bias_inplace(&mut got, &bias).unwrap();
                let want = eval.add_plain(base, &plain).unwrap();
                assert_eq!(got, want, "{form}-form bias {:?}", plain.coeffs());
            }
        }
        assert!(eval.prepare_plain_bias(&Plaintext::constant(t)).is_err());
    }

    /// A host that relabels one component's form reaches the accumulate
    /// with operands that disagree: a shape error, not a context mismatch
    /// and not the poly-level assert.
    #[test]
    fn accumulating_a_relabelled_form_is_a_shape_error() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(97);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::symmetric(ctx.clone(), keygen.secret_key());
        let eval = Evaluator::new(ctx.clone());
        let a = enc
            .encrypt_symmetric(&Plaintext::constant(3), &mut rng)
            .unwrap();
        let w = eval.prepare_plain_scalar(-2).unwrap();
        let mut acc = eval.mul_plain_scalar(&a, &w).unwrap();
        eval.mul_plain_scalar_acc(&mut acc, &a, &w).unwrap();
        for component in 0..2 {
            let mut relabelled = a.clone();
            relabelled.polys[component].form = PolyForm::Coeff;
            let result = eval.mul_plain_scalar_acc(&mut acc.clone(), &relabelled, &w);
            assert!(
                matches!(result, Err(BfvError::InvalidShape(_))),
                "{result:?}"
            );
        }
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
