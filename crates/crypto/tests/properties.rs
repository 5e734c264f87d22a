//! Property-based tests for the cryptographic substrate.

use hesgx_crypto::chacha20;
use hesgx_crypto::hmac::{hmac_sha256, verify_tag};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::schnorr::{SchnorrGroup, Signature, SigningKey, VerifyingKey};
use hesgx_crypto::sha256::{sha256, Sha256};
use hesgx_crypto::uint::{div_rem_u512, Reciprocal, U256, U512};
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256)
}

/// A verifying key of the default group (the one the quoting enclaves sign
/// with) and a signature it accepts over `b"quote"`.
fn quote_key() -> (VerifyingKey, Signature) {
    let sk = SigningKey::generate(SchnorrGroup::default_group(), &mut ChaChaRng::from_seed(11));
    let sig = sk.sign(b"quote");
    (sk.verifying_key(), sig)
}

proptest! {
    #[test]
    fn u256_add_sub_roundtrip(a in arb_u256(), b in arb_u256()) {
        let s = a.wrapping_add(b);
        prop_assert_eq!(s.wrapping_sub(b), a);
    }

    #[test]
    fn u256_shl_shr_inverse(a in arb_u256(), n in 0u32..255) {
        // Shifting left then right recovers the low bits that survived.
        let masked = a.shl(n).shr(n);
        let expect = if n == 0 { a } else { a.shl(n).shr(n) };
        prop_assert_eq!(masked, expect);
        // And the value is bounded by 2^(256-n).
        prop_assert!(masked.bits() <= 256 - n);
    }

    #[test]
    fn u256_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = U256::from_u64(a).widening_mul(U256::from_u64(b));
        prop_assert_eq!(p.lo().to_u128(), Some(a as u128 * b as u128));
        prop_assert!(p.hi().is_zero());
    }

    #[test]
    fn u256_be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn div_rem_invariant(n in any::<[u64; 8]>(), d in arb_u256()) {
        prop_assume!(!d.is_zero());
        let n = U512(n);
        let (q, r) = div_rem_u512(n, d);
        prop_assert!(r < d);
        // n = q*d + r (verify via multiply-add in 512 bits when it fits).
        let qd = q.lo().widening_mul(d);
        if q.hi().is_zero() {
            let (sum, carry) = qd.overflowing_add(U512::from_u256(r));
            prop_assert!(!carry);
            prop_assert_eq!(sum, n);
        }
    }

    #[test]
    fn reciprocal_matches_oracle(y in arb_u256(), d_limbs in any::<[u64; 3]>()) {
        let d = U256([d_limbs[0], d_limbs[1], d_limbs[2] & 0xffff_ffff, 0]);
        prop_assume!(d > U256::ONE);
        let rec = Reciprocal::new(d);
        let (q, r) = rec.div_rem(y);
        let (qo, ro) = div_rem_u512(U512::from_u256(y), d);
        prop_assert_eq!(q, qo.lo());
        prop_assert_eq!(r, ro);
    }

    #[test]
    fn mul_mod_in_range(a in arb_u256(), b in arb_u256(), d_limbs in any::<[u64; 2]>()) {
        let d = U256([d_limbs[0], d_limbs[1] | 1, 0, 0]);
        prop_assume!(d > U256::ONE);
        let rec = Reciprocal::new(d);
        let am = rec.reduce(a);
        let bm = rec.reduce(b);
        let prod = rec.mul_mod(am, bm);
        prop_assert!(prod < d);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2000), split in 0usize..2000) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn chacha_xor_is_involution(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(), data in proptest::collection::vec(any::<u8>(), 0..500)) {
        let mut buf = data.clone();
        chacha20::xor_stream(&key, 0, &nonce, &mut buf);
        chacha20::xor_stream(&key, 0, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn hmac_tag_verifies_and_tamper_fails(key in proptest::collection::vec(any::<u8>(), 1..64), msg in proptest::collection::vec(any::<u8>(), 0..200), flip in 0usize..32) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert!(verify_tag(&tag, &tag));
        let mut bad = tag;
        bad[flip] ^= 1;
        prop_assert!(!verify_tag(&tag, &bad));
    }

    #[test]
    fn rng_next_below_uniform_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = ChaChaRng::from_seed(seed);
        for _ in 0..16 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }
}

// A malformed signature on a quote must be rejected, never accepted and
// never a panic: arbitrary wire bytes (mostly `e` or `s` at or above `q`,
// refused before any arithmetic), and `(e, s)` drawn below `q`, which reach
// the exponentiations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_signature_bytes_never_verify(bytes in any::<[u8; 64]>(), message in proptest::collection::vec(any::<u8>(), 0..64)) {
        let (vk, _) = quote_key();
        prop_assert!(!vk.verify(&message, &Signature::from_bytes(&bytes)));
        prop_assert!(!vk.verify(b"quote", &Signature::from_bytes(&bytes)));
    }

    #[test]
    fn in_range_signature_never_verifies(e in arb_u256(), s in arb_u256()) {
        let (vk, valid) = quote_key();
        let q = Reciprocal::new(SchnorrGroup::default_group().q());
        let forged = Signature { e: q.reduce(e), s: q.reduce(s) };
        prop_assume!(forged != valid);
        prop_assert!(!vk.verify(b"quote", &forged));
    }
}
