//! Key material and key generation — the paper's `SecretKeyGen`,
//! `PublicKeyGen`, and `EvaluationKeyGen` (§II-B), and Galois keys.

use crate::context::BfvContext;
use crate::poly::{PolyForm, RnsPoly};
use crate::sampler;
use hesgx_crypto::rng::ChaChaRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The FV secret key: a ternary polynomial `s`, stored in NTT form.
///
/// The secret polynomial is zeroized when the key drops (see
/// [`SecretKey::zeroize`]), and the [`std::fmt::Debug`] impl redacts it, so
/// neither logs nor freed heap pages retain key material.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey {
    pub(crate) s: RnsPoly,
    pub(crate) context_id: [u8; 32],
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The secret polynomial must never reach a log line
        // (hesgx-lint: secret-debug).
        f.debug_struct("SecretKey")
            .field("context_id", &self.context_id)
            .field("s", &"<redacted>")
            .finish()
    }
}

impl Drop for SecretKey {
    fn drop(&mut self) {
        self.zeroize();
    }
}

impl SecretKey {
    /// The context identifier this key belongs to.
    pub fn context_id(&self) -> &[u8; 32] {
        &self.context_id
    }

    /// Raw RNS limbs of the secret polynomial (for sealing / hashing).
    pub fn s_limbs(&self) -> &[Vec<u64>] {
        &self.s.limbs
    }

    /// Overwrites the secret polynomial's backing buffers with zeros. Called
    /// automatically on drop; callable early when the key's useful life ends
    /// before its owner drops.
    pub fn zeroize(&mut self) {
        for limb in self.s.limbs.iter_mut() {
            for v in limb.iter_mut() {
                *v = 0;
            }
        }
        // Keep the optimizer from eliding the wipes as dead stores.
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// The FV public key `(p0, p1) = ([-(a·s + e)]_q, a)`, stored in NTT form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublicKey {
    pub(crate) p0: RnsPoly,
    pub(crate) p1: RnsPoly,
    pub(crate) context_id: [u8; 32],
}

impl PublicKey {
    /// The context identifier this key belongs to.
    pub fn context_id(&self) -> &[u8; 32] {
        &self.context_id
    }

    /// Raw RNS limbs of `p0` (for canonical hashing in key distribution).
    pub fn p0_limbs(&self) -> &[Vec<u64>] {
        &self.p0.limbs
    }

    /// Raw RNS limbs of `p1` (for canonical hashing in key distribution).
    pub fn p1_limbs(&self) -> &[Vec<u64>] {
        &self.p1.limbs
    }
}

/// Relinearization (evaluation) keys: for each decomposition component `k`,
/// `evk_k = ([-(a_k·s + e_k) + w^k·s²]_q, a_k)`, stored in NTT form.
///
/// Evaluation keys are *encryptions* of key-dependent material; they are
/// shared with the compute party by design, but the workspace still treats
/// them as registry types for `hesgx-lint` so every API crossing is audited.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvaluationKeys {
    pub(crate) keys: Vec<(RnsPoly, RnsPoly)>,
    pub(crate) context_id: [u8; 32],
}

impl std::fmt::Debug for EvaluationKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvaluationKeys")
            .field("context_id", &self.context_id)
            .field("components", &self.keys.len())
            .finish()
    }
}

impl EvaluationKeys {
    /// Number of decomposition components.
    pub fn component_count(&self) -> usize {
        self.keys.len()
    }

    /// The context identifier these keys belong to.
    pub fn context_id(&self) -> &[u8; 32] {
        &self.context_id
    }

    /// Raw RNS limbs of component `k`'s pair `(b_k, a_k)`, in evaluation
    /// form (for canonical hashing and independent re-computation).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.component_count()`.
    pub fn component_limbs(&self, k: usize) -> (&[Vec<u64>], &[Vec<u64>]) {
        let (b, a) = &self.keys[k];
        (&b.limbs, &a.limbs)
    }
}

/// Galois keys: per Galois element `g`, the switching key from `σ_g(s)` back
/// to `s` — [`EvaluationKeys`] with `σ_g(s)` in place of `s²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisKeys {
    pub(crate) keys: Vec<(usize, EvaluationKeys)>,
    pub(crate) context_id: [u8; 32],
}

/// Generates FV key material for one context.
///
/// # Examples
///
/// ```
/// use hesgx_bfv::context::BfvContext;
/// use hesgx_bfv::keys::KeyGenerator;
/// use hesgx_bfv::params::presets;
/// use hesgx_crypto::rng::ChaChaRng;
///
/// let ctx = BfvContext::new(presets::test_n256()).unwrap();
/// let mut rng = ChaChaRng::from_seed(1);
/// let keygen = KeyGenerator::new(ctx, &mut rng);
/// let _pk = keygen.public_key();
/// let _sk = keygen.secret_key();
/// ```
pub struct KeyGenerator {
    ctx: Arc<BfvContext>,
    sk: SecretKey,
    pk: PublicKey,
}

impl std::fmt::Debug for KeyGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Holds the live secret key; expose only the context binding
        // (hesgx-lint: secret-debug).
        f.debug_struct("KeyGenerator")
            .field("context_id", &self.ctx.id())
            .field("sk", &"<redacted>")
            .finish()
    }
}

impl KeyGenerator {
    /// Samples a fresh secret key and matching public key.
    pub fn new(ctx: Arc<BfvContext>, rng: &mut ChaChaRng) -> Self {
        // SecretKeyGen: s <- ternary.
        let mut s = sampler::ternary_poly(&ctx, rng, PolyForm::Coeff);
        s.to_ntt(&ctx);

        // PublicKeyGen: a <- R_q uniform, e <- X, pk = ([-(a·s + e)]_q, a)
        // (`a` drawn as coefficients: the goldens pin a seed's keys).
        let mut a = sampler::uniform_poly(&ctx, rng, PolyForm::Coeff);
        a.to_ntt(&ctx);
        let mut e = sampler::gaussian_poly(&ctx, rng, PolyForm::Coeff);
        e.to_ntt(&ctx);
        let mut p0 = a.mul_pointwise(&s, &ctx);
        p0.add_assign(&e, &ctx);
        p0.negate(&ctx);

        let context_id = *ctx.id();
        KeyGenerator {
            sk: SecretKey { s, context_id },
            pk: PublicKey {
                p0,
                p1: a,
                context_id,
            },
            ctx,
        }
    }

    /// Returns the secret key.
    pub fn secret_key(&self) -> SecretKey {
        self.sk.clone()
    }

    /// Returns the public key.
    pub fn public_key(&self) -> PublicKey {
        self.pk.clone()
    }

    /// `EvaluationKeyGen(sk, w)`: generates relinearization keys with the
    /// context's decomposition base `w = 2^dbc`.
    pub fn evaluation_keys(&self, rng: &mut ChaChaRng) -> EvaluationKeys {
        let s2 = self.sk.s.mul_pointwise(&self.sk.s, &self.ctx);
        EvaluationKeys {
            keys: self.switching_key(&s2, rng),
            context_id: *self.ctx.id(),
        }
    }

    /// The Galois keys of `automorphisms`, in that order.
    pub fn galois_keys(&self, automorphisms: &[Automorphism], rng: &mut ChaChaRng) -> GaloisKeys {
        let ctx = &self.ctx;
        let keys = automorphisms.iter().map(|a| {
            let g = a.galois_elt(ctx.poly_degree());
            let keys = self.switching_key(&self.sk.s.automorphism(g, ctx), rng);
            let context_id = *ctx.id();
            (g, EvaluationKeys { keys, context_id })
        });
        GaloisKeys {
            keys: keys.collect(),
            context_id: *ctx.id(),
        }
    }

    /// The switching key from `target` to `s`: per decomposition component
    /// `k`, `(−(a_k·s + e_k) + w^k·target, a_k)`, in evaluation form.
    fn switching_key(&self, target: &RnsPoly, rng: &mut ChaChaRng) -> Vec<(RnsPoly, RnsPoly)> {
        let ctx = &self.ctx;
        let mut keys = Vec::with_capacity(ctx.decomp_count);
        for k in 0..ctx.decomp_count {
            let mut a_k = sampler::uniform_poly(ctx, rng, PolyForm::Coeff);
            a_k.to_ntt(ctx);
            let mut e_k = sampler::gaussian_poly(ctx, rng, PolyForm::Coeff);
            e_k.to_ntt(ctx);
            let mut b_k = a_k.mul_pointwise(&self.sk.s, ctx);
            b_k.add_assign(&e_k, ctx);
            b_k.negate(ctx);
            let mut scaled = target.clone();
            // w^k mod q_i is a per-limb constant.
            for (i, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
                let wk = ctx.decomp_pow[k][i];
                for v in scaled.limbs[i].iter_mut() {
                    *v = crate::arith::mul_mod(*v, wk, qi);
                }
            }
            b_k.add_assign(&scaled, ctx);
            keys.push((b_k, a_k));
        }
        keys
    }
}

/// A slot permutation of the batch matrix ([`crate::encoding::matrix_index_map`]):
/// the automorphism `x → x^g` for an odd `g < 2n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Automorphism {
    /// Both rows rotated left by this many columns: `g = 3^step mod 2n`.
    RotateRows(usize),
    /// The two rows swapped: `g = 2n − 1`, i.e. `x → x^{−1}`.
    SwapRows,
}

/// The steps of [`crate::evaluator::Evaluator::rotate_and_sum`] over the
/// orbit of `stride`: `stride·2^j` below `n/2`.
pub fn orbit_steps(poly_degree: usize, stride: usize) -> impl Iterator<Item = usize> {
    let first = Some(stride).filter(|&s| s > 0);
    std::iter::successors(first, |&s| s.checked_mul(2)).take_while(move |&s| s < poly_degree / 2)
}

impl Automorphism {
    /// The Galois element `g` of this permutation at degree `n`.
    pub fn galois_elt(self, poly_degree: usize) -> usize {
        let two_n = 2 * poly_degree as u64;
        match self {
            Automorphism::RotateRows(step) => {
                let step = (step % (poly_degree / 2)) as u64;
                crate::arith::pow_mod(3, step, two_n) as usize
            }
            Automorphism::SwapRows => 2 * poly_degree - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::presets;

    #[test]
    fn keygen_produces_bound_keys() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(1);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        assert_eq!(keygen.public_key().context_id(), ctx.id());
        assert_eq!(keygen.secret_key().context_id(), ctx.id());
        let evk = keygen.evaluation_keys(&mut rng);
        assert_eq!(evk.context_id(), ctx.id());
        assert_eq!(evk.component_count(), ctx.decomp_count);
    }

    #[test]
    fn distinct_rng_states_distinct_keys() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng1 = ChaChaRng::from_seed(1);
        let mut rng2 = ChaChaRng::from_seed(2);
        let a = KeyGenerator::new(ctx.clone(), &mut rng1);
        let b = KeyGenerator::new(ctx, &mut rng2);
        assert_ne!(a.secret_key(), b.secret_key());
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn secret_key_zeroize_clears_backing_buffer() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(4);
        let mut sk = KeyGenerator::new(ctx, &mut rng).secret_key();
        assert!(
            sk.s_limbs().iter().any(|l| l.iter().any(|&v| v != 0)),
            "a fresh secret key must contain nonzero limbs"
        );
        sk.zeroize();
        assert!(
            sk.s_limbs().iter().all(|l| l.iter().all(|&v| v == 0)),
            "zeroize must clear every limb of the secret polynomial"
        );
    }

    #[test]
    fn secret_key_debug_redacts_polynomial() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(5);
        let keygen = KeyGenerator::new(ctx, &mut rng);
        let rendered = format!("{:?}", keygen.secret_key());
        assert!(rendered.contains("<redacted>"));
        let rendered = format!("{keygen:?}");
        assert!(rendered.contains("<redacted>"));
    }

    #[test]
    fn pk_relation_holds() {
        // p0 + p1·s should be the (small) negated error: check that
        // p0 + a·s has small centered norm.
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(3);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let pk = keygen.public_key();
        let sk = keygen.secret_key();
        let mut check = pk.p1.mul_pointwise(&sk.s, &ctx);
        check.add_assign(&pk.p0, &ctx);
        check.to_coeff(&ctx);
        // -e has norm at most 6σ ≈ 20 → 5 bits.
        assert!(check.centered_norm_bits(&ctx) <= 6);
    }
}
