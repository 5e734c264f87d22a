//! Encryption — the paper's `Encrypt(pk, m)` (§II-B), and its secret-key
//! form for the parties that hold `s` (the user and the inference enclave).

use crate::ciphertext::{Ciphertext, SeededCiphertext};
use crate::context::BfvContext;
use crate::error::Result;
use crate::keys::{PublicKey, SecretKey};
use crate::plaintext::Plaintext;
use crate::poly::{PolyForm, RnsPoly};
use crate::sampler;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_obs::prof;
use std::borrow::Borrow;
use std::sync::Arc;

/// Encrypts plaintexts under a public key (`K` = [`PublicKey`], owned or
/// borrowed) or under the secret key itself (`K` = [`SecretKey`], owned or
/// borrowed — see [`Encryptor::encrypt_symmetric`]).
///
/// ```
/// use hesgx_bfv::{context::BfvContext, encryptor::Encryptor, keys::KeyGenerator,
///                 params::presets, plaintext::Plaintext};
/// use hesgx_crypto::rng::ChaChaRng;
///
/// let ctx = BfvContext::new(presets::test_n256()).unwrap();
/// let mut rng = ChaChaRng::from_seed(0);
/// let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
/// let encryptor = Encryptor::new(ctx, keygen.public_key());
/// let ct = encryptor.encrypt(&Plaintext::constant(7), &mut rng).unwrap();
/// assert_eq!(ct.size(), 2);
/// ```
#[derive(Debug)]
pub struct Encryptor<K = PublicKey> {
    ctx: Arc<BfvContext>,
    key: K,
}

impl<K> Encryptor<K> {
    /// Finishes `c0` from its key-dependent mask: `c0 = mask + e + Δ·m`
    /// with a fresh error `e`, in the mask's form.
    fn mask_message(&self, mut mask: RnsPoly, plain: &Plaintext, rng: &mut ChaChaRng) -> RnsPoly {
        let ctx = &self.ctx;
        let mut noisy = sampler::gaussian_poly(ctx, rng, PolyForm::Coeff);
        noisy.add_assign(&RnsPoly::from_scaled_plain(ctx, plain.coeffs()), ctx);
        mask.add_assign(&noisy.in_form(mask.form(), ctx), ctx);
        mask
    }
}

impl<K: Borrow<PublicKey>> Encryptor<K> {
    /// Creates an encryptor for `pk` on `ctx`.
    pub fn new(ctx: Arc<BfvContext>, pk: K) -> Self {
        assert_eq!(
            pk.borrow().context_id(),
            ctx.id(),
            "public key context mismatch"
        );
        Encryptor { ctx, key: pk }
    }

    /// Encrypts `plain` into a fresh size-2 ciphertext:
    /// `ct = ([p0·u + e1 + Δ·m]_q, [p1·u + e2]_q)`.
    ///
    /// # Errors
    ///
    /// Fails when the plaintext is longer than the ring degree or not reduced
    /// modulo `t`.
    pub fn encrypt(&self, plain: &Plaintext, rng: &mut ChaChaRng) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.encrypt");
        plain.check(&self.ctx)?;
        let ctx = &self.ctx;
        let pk = self.key.borrow();

        let u = sampler::ternary_poly(ctx, rng, PolyForm::Ntt);
        let mut mask = pk.p0.mul_pointwise(&u, ctx);
        mask.to_coeff(ctx);
        let c0 = self.mask_message(mask, plain, rng);

        // c1 = p1·u + e2
        let mut c1 = pk.p1.mul_pointwise(&u, ctx);
        c1.to_coeff(ctx);
        c1.add_assign(&sampler::gaussian_poly(ctx, rng, PolyForm::Coeff), ctx);

        Ok(Ciphertext {
            polys: vec![c0, c1],
            context_id: *ctx.id(),
        })
    }
}

impl<K: Borrow<SecretKey>> Encryptor<K> {
    /// Creates a secret-key encryptor for `sk` on `ctx`.
    pub fn symmetric(ctx: Arc<BfvContext>, sk: K) -> Self {
        assert_eq!(
            sk.borrow().context_id(),
            ctx.id(),
            "secret key context mismatch"
        );
        Encryptor { ctx, key: sk }
    }

    /// Secret-key encryption: `ct = ([−a·s + e + Δ·m]_q, a)` with `a`
    /// uniform in `R_q` — the relation the public key itself satisfies — in
    /// evaluation form, where `a` is drawn directly (a uniform polynomial is
    /// uniform in either basis). Against the public-key path: one pointwise
    /// product instead of two, one transform per limb (`NTT(e + Δ·m)`)
    /// instead of three, fresh noise `e` instead of `e_pk·u + e1 + e2·s`.
    ///
    /// # Errors
    ///
    /// Fails when the plaintext is longer than the ring degree or not reduced
    /// modulo `t`.
    pub fn encrypt_symmetric(&self, plain: &Plaintext, rng: &mut ChaChaRng) -> Result<Ciphertext> {
        let _prof = prof::span("bfv.encrypt");
        plain.check(&self.ctx)?;
        let a = sampler::uniform_poly(&self.ctx, rng, PolyForm::Ntt);
        Ok(Ciphertext {
            polys: vec![self.symmetric_c0(&a, plain, rng), a],
            context_id: *self.ctx.id(),
        })
    }

    /// [`Encryptor::encrypt_symmetric`] for the wire: a 32-byte seed drawn
    /// from `rng` keys the stream `a` is drawn from
    /// ([`sampler::seeded_uniform_poly`]), and only `c0` and the seed are
    /// kept — the receiver regenerates `a`
    /// ([`SeededCiphertext::expand`]). A seed must never repeat under one
    /// key: two `c0` under one `a` subtract to `Δ·(m − m′) + e − e′`.
    ///
    /// # Errors
    ///
    /// As [`Encryptor::encrypt_symmetric`].
    pub fn encrypt_seeded(
        &self,
        plain: &Plaintext,
        rng: &mut ChaChaRng,
    ) -> Result<SeededCiphertext> {
        let _prof = prof::span("bfv.encrypt");
        plain.check(&self.ctx)?;
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let a = sampler::seeded_uniform_poly(&self.ctx, &seed);
        Ok(SeededCiphertext {
            c0: self.symmetric_c0(&a, plain, rng),
            seed,
            context_id: *self.ctx.id(),
        })
    }

    /// The one body of both secret-key forms: `c0 = −a·s + e + Δ·m` for a
    /// given evaluation-form `a`, the error drawn from `rng`.
    fn symmetric_c0(&self, a: &RnsPoly, plain: &Plaintext, rng: &mut ChaChaRng) -> RnsPoly {
        let mut mask = a.mul_pointwise(&self.key.borrow().s, &self.ctx);
        mask.negate(&self.ctx);
        self.mask_message(mask, plain, rng)
    }
}

/// The key a party encrypts under, its type picking the encryption: a
/// [`PublicKey`] for anyone ([`Encryptor::encrypt`]), the [`SecretKey`] for
/// whoever holds `s` — the user, the enclave ([`Encryptor::encrypt_symmetric`]).
pub trait EncryptionKey {
    /// Encrypts `plain` under this key on `ctx`; fails as that method does.
    fn encrypt(
        &self,
        ctx: &Arc<BfvContext>,
        plain: &Plaintext,
        rng: &mut ChaChaRng,
    ) -> Result<Ciphertext>;
}

impl EncryptionKey for PublicKey {
    fn encrypt(
        &self,
        ctx: &Arc<BfvContext>,
        plain: &Plaintext,
        rng: &mut ChaChaRng,
    ) -> Result<Ciphertext> {
        Encryptor::new(ctx.clone(), self).encrypt(plain, rng)
    }
}

impl EncryptionKey for SecretKey {
    fn encrypt(
        &self,
        ctx: &Arc<BfvContext>,
        plain: &Plaintext,
        rng: &mut ChaChaRng,
    ) -> Result<Ciphertext> {
        Encryptor::symmetric(ctx.clone(), self).encrypt_symmetric(plain, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BfvError;
    use crate::keys::KeyGenerator;
    use crate::params::presets;

    fn setup() -> (Arc<BfvContext>, Encryptor, ChaChaRng) {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(11);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        (ctx, enc, rng)
    }

    #[test]
    fn fresh_ciphertext_size_two() {
        let (_, enc, mut rng) = setup();
        let ct = enc.encrypt(&Plaintext::constant(1), &mut rng).unwrap();
        assert_eq!(ct.size(), 2);
    }

    #[test]
    fn rejects_long_plaintext() {
        let (ctx, enc, mut rng) = setup();
        let too_long = Plaintext::from_coeffs(vec![0; ctx.poly_degree() + 1]);
        assert!(matches!(
            enc.encrypt(&too_long, &mut rng),
            Err(BfvError::PlaintextTooLong { .. })
        ));
    }

    #[test]
    fn rejects_unreduced_plaintext() {
        let (ctx, enc, mut rng) = setup();
        let t = ctx.params().plain_modulus();
        assert!(matches!(
            enc.encrypt(&Plaintext::constant(t), &mut rng),
            Err(BfvError::PlaintextOutOfRange(_))
        ));
    }

    /// On every preset the secret-key encryption leaves both components in
    /// evaluation form, decrypts every slot exactly, and starts with at
    /// least the public-key encryption's noise budget.
    #[test]
    fn symmetric_encryption_is_exact_and_no_noisier_on_every_preset() {
        use crate::{decryptor::Decryptor, encoding::BatchEncoder};
        let deep_t = crate::arith::smallest_prime_congruent_one_above(40_000, 2048);
        for params in [
            presets::test_n256(),
            presets::paper_n1024(),
            presets::cryptonets_n1024(deep_t),
        ] {
            let ctx = BfvContext::new(params).unwrap();
            let mut rng = ChaChaRng::from_seed(17);
            let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
            let public = Encryptor::new(ctx.clone(), keygen.public_key());
            let symmetric = Encryptor::symmetric(ctx.clone(), keygen.secret_key());
            let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
            let encoder = BatchEncoder::new(ctx.params()).unwrap();
            let mut slots = vec![0u64; ctx.poly_degree()];
            rng.fill_below(ctx.params().plain_modulus(), &mut slots);
            let m = encoder.encode(&slots).unwrap();
            let sym = symmetric.encrypt_symmetric(&m, &mut rng).unwrap();
            assert!(sym.polys.iter().all(|p| p.form() == PolyForm::Ntt));
            assert_eq!(encoder.decode(&dec.decrypt(&sym).unwrap()), slots);
            let pk = public.encrypt(&m, &mut rng).unwrap();
            let budget = |ct| dec.invariant_noise_budget(ct).unwrap();
            assert!(budget(&sym) >= budget(&pk), "n = {}", ctx.poly_degree());
        }
    }

    /// The seeded form is the symmetric one with `a` drawn from the seed's
    /// stream: the receiver's expansion is bit for bit the `(c0, a)` the
    /// sender formed, and decrypts exactly; the wire form is `c0` and 32
    /// bytes; a context of another parameter set is refused.
    #[test]
    fn a_seeded_ciphertext_expands_to_the_ciphertext_its_sender_formed() {
        use crate::{decryptor::Decryptor, encoding::BatchEncoder};
        let ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        let mut rng = ChaChaRng::from_seed(19);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::symmetric(ctx.clone(), keygen.secret_key());
        let encoder = BatchEncoder::new(ctx.params()).unwrap();
        let mut slots = vec![0u64; ctx.poly_degree()];
        rng.fill_below(ctx.params().plain_modulus(), &mut slots);
        let m = encoder.encode(&slots).unwrap();
        let (mut sender, mut receiver) = (rng.fork("sender"), rng.fork("sender"));
        let seeded = enc.encrypt_seeded(&m, &mut receiver).unwrap();
        let mut seed = [0u8; 32];
        sender.fill_bytes(&mut seed);
        let a = sampler::seeded_uniform_poly(&ctx, &seed);
        let formed = Ciphertext {
            polys: vec![enc.symmetric_c0(&a, &m, &mut sender), a],
            context_id: *ctx.id(),
        };
        assert_eq!(seeded.seed(), &seed);
        let expanded = seeded.expand(&ctx).unwrap();
        assert_eq!(expanded, formed);
        let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
        assert_eq!(encoder.decode(&dec.decrypt(&expanded).unwrap()), slots);
        assert_eq!(seeded.byte_len(), formed.byte_len() / 2 + 32);
        let other = BfvContext::new(presets::test_n256()).unwrap();
        assert_eq!(seeded.expand(&other), Err(BfvError::ContextMismatch));
        let fresh = enc.encrypt_seeded(&m, &mut receiver).unwrap();
        assert_ne!(fresh.seed(), seeded.seed());
    }

    /// The negative control of the seed rule: two ciphertexts forced under
    /// one `a` subtract to `Δ·(m − m′) + e − e′`, and `(c0 − c0′, 0)` then
    /// decrypts to `m − m′` under any key at all — no `s` needed.
    #[test]
    fn a_reused_seed_leaks_the_difference_of_the_messages() {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(23);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::symmetric(ctx.clone(), keygen.secret_key());
        let t = ctx.params().plain_modulus();
        let (m, m2): (Vec<u64>, Vec<u64>) = (0..ctx.poly_degree() as u64)
            .map(|j| ((j * 37 + 5) % t, (j * j + 11) % t))
            .unzip();
        let a = sampler::uniform_poly(&ctx, &mut rng, PolyForm::Ntt);
        let c0 = enc.symmetric_c0(&a, &Plaintext::from_coeffs(m.clone()), &mut rng);
        let c0b = enc.symmetric_c0(&a, &Plaintext::from_coeffs(m2.clone()), &mut rng);
        let mut diff = c0b;
        diff.negate(&ctx);
        diff.add_assign(&c0, &ctx);
        let leaked = Ciphertext {
            polys: vec![diff, RnsPoly::zero(&ctx, PolyForm::Ntt)],
            context_id: *ctx.id(),
        };
        let stranger = KeyGenerator::new(ctx.clone(), &mut ChaChaRng::from_seed(99));
        let dec = crate::decryptor::Decryptor::new(ctx.clone(), stranger.secret_key());
        let got = dec.decrypt(&leaked).unwrap();
        let want: Vec<u64> = m.iter().zip(&m2).map(|(&x, &y)| (x + t - y) % t).collect();
        assert_eq!(got.coeffs()[..want.len()], want[..]);
    }

    #[test]
    fn encryption_is_randomized() {
        let (_, enc, mut rng) = setup();
        let a = enc.encrypt(&Plaintext::constant(1), &mut rng).unwrap();
        let b = enc.encrypt(&Plaintext::constant(1), &mut rng).unwrap();
        assert_ne!(a, b);
    }
}
