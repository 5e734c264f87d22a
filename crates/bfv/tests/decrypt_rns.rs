//! The RNS-native scale-and-round in `Decryptor::decrypt` against the
//! textbook `⌊(t·x + ⌊q/2⌋)/q⌋ mod t` evaluated in `U256` on the
//! CRT-reconstructed phase (`Decryptor::raw_phase`), and the secret-key
//! encryptor against the public-key one.
//!
//! Equality is demanded for *every* ciphertext, decryptable or not: an
//! exhausted ciphertext has an essentially uniform phase, which lands on the
//! rounding boundaries far more often than any valid one.

use hesgx_bfv::arith::{largest_prime_congruent_one, smallest_prime_congruent_one_above};
use hesgx_bfv::context::BfvContext;
use hesgx_bfv::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::uint::{Reciprocal, U256};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Fixture {
    name: &'static str,
    ctx: Arc<BfvContext>,
    public: Encryptor,
    symmetric: Encryptor<SecretKey>,
    decryptor: Decryptor,
    evaluator: Evaluator,
}

impl Fixture {
    fn new(name: &'static str, params: EncryptionParameters) -> Self {
        let ctx = BfvContext::new(params).unwrap();
        let keygen = KeyGenerator::new(ctx.clone(), &mut ChaChaRng::from_seed(77));
        Fixture {
            name,
            public: Encryptor::new(ctx.clone(), keygen.public_key()),
            symmetric: Encryptor::symmetric(ctx.clone(), keygen.secret_key()),
            decryptor: Decryptor::new(ctx.clone(), keygen.secret_key()),
            evaluator: Evaluator::new(ctx.clone()),
            ctx,
        }
    }

    /// `q` and its reciprocal, 256 bits wide.
    fn q_u256(&self) -> (U256, Reciprocal) {
        let moduli = self.ctx.params().coeff_moduli();
        let q = moduli.iter().fold(U256::ONE, |q, &qi| {
            let (prod, carry) = q.carrying_mul_u64(qi);
            assert_eq!(carry, 0);
            prod
        });
        (q, Reciprocal::new(q))
    }

    /// `t·x` for every coefficient `x` of the reconstructed phase.
    fn scaled_phase_u256(&self, ct: &Ciphertext) -> impl Iterator<Item = U256> {
        let t = self.ctx.params().plain_modulus();
        let phase = self.decryptor.raw_phase(ct).unwrap();
        phase.into_iter().map(move |x| {
            let (tx, carry) = U256::from_u128(x).carrying_mul_u64(t);
            assert_eq!(carry, 0);
            tx
        })
    }

    /// The reference decryption: reconstruct, scale, round, reduce — 256-bit
    /// integers throughout.
    fn decrypt_u256(&self, ct: &Ciphertext) -> Vec<u64> {
        let t = self.ctx.params().plain_modulus();
        let (q, rec_q) = self.q_u256();
        self.scaled_phase_u256(ct)
            .map(|tx| {
                let (quot, _) = rec_q.div_rem(tx.checked_add(q.shr(1)).unwrap());
                quot.to_u64().unwrap() % t
            })
            .collect()
    }

    /// The reference noise budget: `bits(q) − bits(max |[t·x]_q|) − 1` with
    /// the centered remainder taken in 256-bit integers.
    fn budget_u256(&self, ct: &Ciphertext) -> u32 {
        let (q, rec_q) = self.q_u256();
        let norm_bits = self
            .scaled_phase_u256(ct)
            .map(|tx| {
                let rem = rec_q.div_rem(tx).1;
                let centered = if rem > q.shr(1) {
                    q.wrapping_sub(rem)
                } else {
                    rem
                };
                centered.bits()
            })
            .max()
            .unwrap();
        q.bits().saturating_sub(norm_bits + 1)
    }

    /// Asserts the production budget equals the reference; returns it.
    fn checked_budget(&self, ct: &Ciphertext, what: &str) -> u32 {
        let got = self.decryptor.invariant_noise_budget(ct).unwrap();
        assert_eq!(got, self.budget_u256(ct), "{}: budget, {what}", self.name);
        got
    }

    /// Asserts the production decryption equals the reference; returns it.
    fn checked_decrypt(&self, ct: &Ciphertext, what: &str) -> Vec<u64> {
        let got = self.decryptor.decrypt(ct).unwrap().coeffs().to_vec();
        assert_eq!(got, self.decrypt_u256(ct), "{}: {what}", self.name);
        got
    }

    fn random_plain(&self, rng: &mut ChaChaRng) -> Plaintext {
        let t = self.ctx.params().plain_modulus();
        let mut coeffs = vec![0u64; self.ctx.poly_degree()];
        rng.fill_below(t, &mut coeffs);
        Plaintext::from_coeffs(coeffs)
    }

    /// Fresh (both encryptors), after a `mul_plain`/add chain, size 3 after
    /// a square, and on the way down to an exhausted budget and past it.
    fn check_all_shapes(&self, seed: u64) {
        let mut rng = ChaChaRng::from_seed(seed);
        let ev = &self.evaluator;
        let m = self.random_plain(&mut rng);
        let fresh = self.public.encrypt(&m, &mut rng).unwrap();
        assert_eq!(self.checked_decrypt(&fresh, "fresh"), m.coeffs());
        self.checked_budget(&fresh, "fresh");
        let sym = self.symmetric.encrypt_symmetric(&m, &mut rng).unwrap();
        assert_eq!(self.checked_decrypt(&sym, "fresh symmetric"), m.coeffs());

        let w = Plaintext::from_coeffs(vec![3, 0, 1, 2]);
        let mut chain = ev.mul_plain(&fresh, &w).unwrap();
        for _ in 0..3 {
            chain = ev.add(&chain, &sym).unwrap();
            chain = ev.add_plain(&chain, &m).unwrap();
        }
        self.checked_decrypt(&chain, "mul_plain/add chain");
        self.checked_budget(&chain, "mul_plain/add chain");

        let squared = ev.square(&fresh).unwrap();
        assert_eq!(squared.size(), 3);
        self.checked_decrypt(&squared, "size 3");
        self.checked_budget(&squared, "size 3");

        let mut worn = sym;
        for step in 0.. {
            let budget = self.checked_budget(&worn, "worn");
            self.checked_decrypt(&worn, &format!("budget {budget} bits"));
            if budget == 0 && step > 0 {
                break;
            }
            worn = ev.mul_plain_signed_scalar(&worn, 1021).unwrap();
        }
    }
}

fn fixtures() -> &'static [Fixture; 4] {
    static FIX: OnceLock<[Fixture; 4]> = OnceLock::new();
    FIX.get_or_init(|| {
        let single = |bits, t| {
            EncryptionParameters::builder()
                .poly_degree(256)
                .coeff_moduli(vec![largest_prime_congruent_one(bits, 512)])
                .plain_modulus(t)
                .build()
                .unwrap()
        };
        [
            Fixture::new("test_n256", presets::test_n256()),
            Fixture::new("paper_n1024", presets::paper_n1024()),
            Fixture::new("single limb", single(50, 12289)),
            // q below t: nothing decrypts, but `t = t_quot·q + t_rem` has a
            // non-zero quotient, the one branch the other sets never take.
            Fixture::new(
                "single limb below t",
                single(20, smallest_prime_congruent_one_above(1 << 29, 512)),
            ),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn rns_decrypt_equals_u256_reference(seed in any::<u64>()) {
        for f in &fixtures()[..3] {
            f.check_all_shapes(seed);
        }
    }

    #[test]
    fn rns_decrypt_equals_u256_reference_on_arbitrary_phases(seed in any::<u64>()) {
        // With q < t the phase of any ciphertext is uniform garbage; only
        // equality with the reference is meaningful.
        let f = &fixtures()[3];
        prop_assert!(f.ctx.params().plain_modulus() > f.ctx.params().coeff_moduli()[0]);
        let mut rng = ChaChaRng::from_seed(seed);
        let m = f.random_plain(&mut rng);
        let ct = f.public.encrypt(&m, &mut rng).unwrap();
        f.checked_decrypt(&ct, "public");
        let ct = f.symmetric.encrypt_symmetric(&m, &mut rng).unwrap();
        f.checked_decrypt(&f.evaluator.square(&ct).unwrap(), "symmetric, squared");
    }

    #[test]
    fn symmetric_roundtrips_every_slot_with_no_more_noise_than_public(seed in any::<u64>()) {
        for f in &fixtures()[..3] {
            let mut rng = ChaChaRng::from_seed(seed);
            let encoder = BatchEncoder::new(f.ctx.params()).unwrap();
            let t = f.ctx.params().plain_modulus();
            let mut slots = vec![0u64; f.ctx.poly_degree()];
            rng.fill_below(t, &mut slots);
            let m = encoder.encode(&slots).unwrap();
            let sym = f.symmetric.encrypt_symmetric(&m, &mut rng).unwrap();
            prop_assert_eq!(sym.size(), 2);
            prop_assert_eq!(encoder.decode(&f.decryptor.decrypt(&sym).unwrap()), slots);
            let public = f.public.encrypt(&m, &mut rng).unwrap();
            let sym_budget = f.decryptor.invariant_noise_budget(&sym).unwrap();
            let public_budget = f.decryptor.invariant_noise_budget(&public).unwrap();
            prop_assert!(
                sym_budget >= public_budget,
                "{}: symmetric {sym_budget} bits < public {public_budget} bits",
                f.name
            );
            // A non-zero message's own `(q mod t)·m` term can hide the
            // gap; on the zero plaintext the budget is the fresh error alone
            // (`e` against `e_pk·u + e1 + e2·s`).
            let zero = Plaintext::zero();
            let sym = f.symmetric.encrypt_symmetric(&zero, &mut rng).unwrap();
            let public = f.public.encrypt(&zero, &mut rng).unwrap();
            prop_assert!(
                f.decryptor.invariant_noise_budget(&sym).unwrap()
                    > f.decryptor.invariant_noise_budget(&public).unwrap()
            );
        }
    }
}
