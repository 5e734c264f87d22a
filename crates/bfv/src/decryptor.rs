//! Decryption and noise-budget measurement — the paper's `Decrypt(sk, c)`
//! (§II-B).

use crate::ciphertext::Ciphertext;
use crate::context::BfvContext;
use crate::error::{BfvError, Result};
use crate::keys::SecretKey;
use crate::plaintext::Plaintext;
use crate::poly::{PolyForm, RnsPoly};
use hesgx_obs::prof;
use std::borrow::Borrow;
use std::sync::Arc;

/// Decrypts ciphertexts with a secret key; also measures the invariant noise
/// budget, which the hybrid planner uses to decide when an enclave refresh is
/// due.
///
/// `K` is an owned [`SecretKey`] or a `&SecretKey`, so per-call users (the
/// enclave's cell loop) borrow the resident key instead of cloning one.
#[derive(Debug)]
pub struct Decryptor<K = SecretKey> {
    ctx: Arc<BfvContext>,
    sk: K,
}

impl<K: Borrow<SecretKey>> Decryptor<K> {
    /// Creates a decryptor for `sk` on `ctx`.
    pub fn new(ctx: Arc<BfvContext>, sk: K) -> Self {
        assert_eq!(
            sk.borrow().context_id(),
            ctx.id(),
            "secret key context mismatch"
        );
        Decryptor { ctx, sk }
    }

    /// Computes `c(s) = c0 + c1·s + c2·s² + …` in coefficient form; `c0`
    /// needs no transform and joins on whichever side it already lives.
    fn dot_with_secret(&self, ct: &Ciphertext) -> RnsPoly {
        let ctx = &self.ctx;
        let s = &self.sk.borrow().s;
        let mut acc = ct.polys[1]
            .in_form(PolyForm::Ntt, ctx)
            .mul_pointwise(s, ctx);
        let mut s_power = None;
        for poly in &ct.polys[2..] {
            let base = s_power.as_ref().unwrap_or(s);
            let power = s_power.insert(base.mul_pointwise(s, ctx));
            acc.mul_acc(&poly.in_form(PolyForm::Ntt, ctx), power, ctx);
        }
        let c0 = &ct.polys[0];
        if c0.form() == PolyForm::Ntt {
            acc.add_assign(c0, ctx);
        }
        acc.to_coeff(ctx);
        if c0.form() == PolyForm::Coeff {
            acc.add_assign(c0, ctx);
        }
        acc
    }

    /// Decrypts: `m = round(t·[c(s)]_q / q) mod t`, scaled and rounded limb
    /// by limb (see `BfvContext::scale_and_round`).
    ///
    /// # Errors
    ///
    /// Fails when the ciphertext is bound to another context or malformed.
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext> {
        let _prof = prof::span("bfv.decrypt");
        self.check(ct)?;
        let phase = self.dot_with_secret(ct);
        Ok(Plaintext::from_coeffs(self.ctx.scale_and_round(&phase)))
    }

    /// The plaintext coefficients at the indices of `at`, in that order: the
    /// whole `c(s)`, then scaled and rounded only where asked — what a
    /// reader of a few coefficients of a cell pays instead of
    /// [`Decryptor::decrypt`]'s every one.
    ///
    /// # Errors
    ///
    /// As [`Decryptor::decrypt`]; [`BfvError::InvalidShape`] for an index
    /// at or past the degree.
    pub fn decrypt_at(
        &self,
        ct: &Ciphertext,
        at: impl Iterator<Item = usize> + Clone,
    ) -> Result<Vec<u64>> {
        let _prof = prof::span("bfv.decrypt");
        self.check(ct)?;
        let n = self.ctx.poly_degree();
        if let Some(j) = at.clone().find(|&j| j >= n) {
            return Err(BfvError::InvalidShape(format!(
                "coefficient {j} of a degree-{n} plaintext"
            )));
        }
        let phase = self.dot_with_secret(ct);
        Ok(self.ctx.scale_and_round_at(&phase, at))
    }

    /// Measures the invariant-noise budget in bits.
    ///
    /// The invariant noise `v` satisfies `(t/q)·c(s) = m + v + t·k`; decryption
    /// is correct while `‖v‖ < 1/2`. The budget is `−log2(2‖v‖)`, i.e. the
    /// number of noise-doubling operations the ciphertext can still absorb.
    /// Returns 0 when the ciphertext is no longer decryptable.
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> Result<u32> {
        self.check(ct)?;
        let ctx = &self.ctx;
        // t·[c(s)]_q mod q, limb by limb; centered it is t·(noise) plus a
        // small rounding part, and the budget follows from its max norm:
        // v = (t·x mod q)/q  =>  −log2(2‖v‖) ≈ q_bits − norm_bits − 1.
        let mut noise = self.dot_with_secret(ct);
        noise.scale_u64(ctx.params().plain_modulus(), ctx);
        let q_bits = u128::BITS - ctx.q.leading_zeros();
        Ok(q_bits.saturating_sub(noise.centered_norm_bits(ctx) + 1))
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

    /// Reconstructs the raw `[c(s)]_q` coefficients (diagnostic API used by
    /// tests and by the noise-analysis example).
    pub fn raw_phase(&self, ct: &Ciphertext) -> Result<Vec<u128>> {
        self.check(ct)?;
        let phase = self.dot_with_secret(ct);
        Ok((0..self.ctx.poly_degree())
            .map(|j| self.ctx.reconstruct(&phase, j))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encryptor::Encryptor;
    use crate::keys::KeyGenerator;
    use crate::params::presets;
    use hesgx_crypto::rng::ChaChaRng;

    fn setup() -> (Arc<BfvContext>, Encryptor, Decryptor, ChaChaRng) {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(21);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
        (ctx, enc, dec, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip_constants() {
        let (ctx, enc, dec, mut rng) = setup();
        let t = ctx.params().plain_modulus();
        for v in [0u64, 1, 2, 7, t - 1, t / 2] {
            let ct = enc.encrypt(&Plaintext::constant(v), &mut rng).unwrap();
            let back = dec.decrypt(&ct).unwrap();
            assert_eq!(back.coeffs()[0], v, "value {v}");
            assert!(back.coeffs()[1..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_polynomials() {
        let (ctx, enc, dec, mut rng) = setup();
        let t = ctx.params().plain_modulus();
        let n = ctx.poly_degree();
        let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 37) % t).collect();
        let pt = Plaintext::from_coeffs(coeffs.clone());
        let ct = enc.encrypt(&pt, &mut rng).unwrap();
        assert_eq!(dec.decrypt(&ct).unwrap().coeffs(), &coeffs[..]);
    }

    #[test]
    fn fresh_budget_positive_and_reasonable() {
        let (ctx, enc, dec, mut rng) = setup();
        let ct = enc.encrypt(&Plaintext::constant(3), &mut rng).unwrap();
        let budget = dec.invariant_noise_budget(&ct).unwrap();
        let q_bits = ctx.params().coeff_modulus_bits();
        assert!(budget > 0, "fresh ciphertext must be decryptable");
        assert!(
            budget < q_bits,
            "budget {budget} must be below q bits {q_bits}"
        );
    }

    #[test]
    fn wrong_context_rejected() {
        let (_, _, dec, mut rng) = setup();
        let other_ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        let keygen = KeyGenerator::new(other_ctx.clone(), &mut rng);
        let enc2 = Encryptor::new(other_ctx, keygen.public_key());
        let ct = enc2.encrypt(&Plaintext::constant(1), &mut rng).unwrap();
        assert_eq!(dec.decrypt(&ct), Err(BfvError::ContextMismatch));
    }
}
