//! Property-based tests of the FV scheme: homomorphism over random inputs,
//! encoder round-trips, and NTT correctness against the schoolbook oracle.

use hesgx_bfv::context::BfvContext;
use hesgx_bfv::encoding::BatchEncoder;
use hesgx_bfv::ntt::{negacyclic_multiply_naive, NttTable};
use hesgx_bfv::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use proptest::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

struct Fixture {
    ctx: Arc<BfvContext>,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
    evk: EvaluationKeys,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(1234);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        Fixture {
            encryptor: Encryptor::new(ctx.clone(), keygen.public_key()),
            decryptor: Decryptor::new(ctx.clone(), keygen.secret_key()),
            evaluator: Evaluator::new(ctx.clone()),
            evk: keygen.evaluation_keys(&mut rng),
            ctx,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encrypt_decrypt_identity(v in 0u64..4099, seed in any::<u64>()) {
        let f = fixture();
        let t = f.ctx.params().plain_modulus();
        let mut rng = ChaChaRng::from_seed(seed);
        let ct = f.encryptor.encrypt(&Plaintext::constant(v % t), &mut rng).unwrap();
        prop_assert_eq!(f.decryptor.decrypt(&ct).unwrap().coeffs()[0], v % t);
    }

    #[test]
    fn addition_homomorphism(a in 0u64..4000, b in 0u64..3000, seed in any::<u64>()) {
        let f = fixture();
        let t = f.ctx.params().plain_modulus();
        let mut rng = ChaChaRng::from_seed(seed);
        let ca = f.encryptor.encrypt(&Plaintext::constant(a % t), &mut rng).unwrap();
        let cb = f.encryptor.encrypt(&Plaintext::constant(b % t), &mut rng).unwrap();
        let sum = f.evaluator.add(&ca, &cb).unwrap();
        prop_assert_eq!(f.decryptor.decrypt(&sum).unwrap().coeffs()[0], (a + b) % t);
    }

    #[test]
    fn multiplication_homomorphism(a in 0u64..60, b in 0u64..60, seed in any::<u64>()) {
        let f = fixture();
        let t = f.ctx.params().plain_modulus();
        let mut rng = ChaChaRng::from_seed(seed);
        let ca = f.encryptor.encrypt(&Plaintext::constant(a), &mut rng).unwrap();
        let cb = f.encryptor.encrypt(&Plaintext::constant(b), &mut rng).unwrap();
        let prod = f.evaluator.multiply(&ca, &cb).unwrap();
        prop_assert_eq!(f.decryptor.decrypt(&prod).unwrap().coeffs()[0], (a * b) % t);
        // ... and relinearization preserves the value.
        let relin = f.evaluator.relinearize(&prod, &f.evk).unwrap();
        prop_assert_eq!(f.decryptor.decrypt(&relin).unwrap().coeffs()[0], (a * b) % t);
    }

    #[test]
    fn scalar_multiplication_homomorphism(a in 0u64..500, w in -60i64..60, seed in any::<u64>()) {
        let f = fixture();
        let t = f.ctx.params().plain_modulus();
        let mut rng = ChaChaRng::from_seed(seed);
        let ca = f.encryptor.encrypt(&Plaintext::constant(a), &mut rng).unwrap();
        let prod = f.evaluator.mul_plain_signed_scalar(&ca, w).unwrap();
        let expect = ((a as i64 * w).rem_euclid(t as i64)) as u64;
        prop_assert_eq!(f.decryptor.decrypt(&prod).unwrap().coeffs()[0], expect);
    }

    #[test]
    fn linearity_distributes(a in 0u64..100, b in 0u64..100, w in 1i64..30, seed in any::<u64>()) {
        // w*(a + b) == w*a + w*b homomorphically.
        let f = fixture();
        let mut rng = ChaChaRng::from_seed(seed);
        let ca = f.encryptor.encrypt(&Plaintext::constant(a), &mut rng).unwrap();
        let cb = f.encryptor.encrypt(&Plaintext::constant(b), &mut rng).unwrap();
        let lhs = f.evaluator.mul_plain_signed_scalar(&f.evaluator.add(&ca, &cb).unwrap(), w).unwrap();
        let wa = f.evaluator.mul_plain_signed_scalar(&ca, w).unwrap();
        let wb = f.evaluator.mul_plain_signed_scalar(&cb, w).unwrap();
        let rhs = f.evaluator.add(&wa, &wb).unwrap();
        prop_assert_eq!(
            f.decryptor.decrypt(&lhs).unwrap().coeffs()[0],
            f.decryptor.decrypt(&rhs).unwrap().coeffs()[0]
        );
    }

    #[test]
    fn batch_encoder_roundtrip(values in proptest::collection::vec(0u64..65537, 1..64)) {
        static ENC: OnceLock<BatchEncoder> = OnceLock::new();
        let enc = ENC.get_or_init(|| {
            BatchEncoder::new(&presets::paper_n1024()).unwrap()
        });
        let decoded = enc.decode(&enc.encode(&values).unwrap());
        prop_assert_eq!(&decoded[..values.len()], &values[..]);
        prop_assert!(decoded[values.len()..].iter().all(|&v| v == 0));
    }

    #[test]
    fn ntt_multiply_matches_schoolbook(seed in any::<u64>()) {
        let n = 64;
        let p = hesgx_bfv::arith::largest_prime_congruent_one(40, 2 * n as u64);
        let table = NttTable::new(n, p);
        let mut rng = ChaChaRng::from_seed(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.next_below(p)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.next_below(p)).collect();
        prop_assert_eq!(
            table.negacyclic_multiply(&a, &b),
            negacyclic_multiply_naive(&a, &b, p)
        );
    }

    #[test]
    fn noise_budget_monotone_under_adds(v in 0u64..100, adds in 1usize..6, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = ChaChaRng::from_seed(seed);
        let ct = f.encryptor.encrypt(&Plaintext::constant(v), &mut rng).unwrap();
        let fresh = f.decryptor.invariant_noise_budget(&ct).unwrap();
        let mut acc = ct.clone();
        for _ in 0..adds {
            acc = f.evaluator.add(&acc, &ct).unwrap();
        }
        let after = f.decryptor.invariant_noise_budget(&acc).unwrap();
        prop_assert!(after <= fresh);
        prop_assert!(after + 8 >= fresh.min(after + 8), "adds are cheap");
        // Value still correct.
        let t = f.ctx.params().plain_modulus();
        prop_assert_eq!(
            f.decryptor.decrypt(&acc).unwrap().coeffs()[0],
            (v * (adds as u64 + 1)) % t
        );
    }
}
