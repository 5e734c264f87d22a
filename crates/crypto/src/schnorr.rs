//! Schnorr signatures over a prime-field Schnorr group.
//!
//! This is the signature scheme behind the simulated attestation
//! infrastructure in `hesgx-tee`: the quoting enclave signs quotes with its
//! attestation key, and verifiers check them against the (simulated) Intel
//! attestation service root of trust — the role ECDSA plays in real DCAP.
//!
//! The group is a classic Schnorr group: primes `p = k·q + 1` with a generator
//! `g` of the order-`q` subgroup of `Z_p^*`. Group generation is deterministic
//! from a seed, so tests are reproducible. Nonces are derived
//! deterministically from the secret key and message (RFC 6979 style), so
//! signing never needs fresh entropy.
//!
//! Parameter sizes (224-bit `p`, 192-bit `q`) are simulation-grade, matching
//! the rest of the framework; swap [`SchnorrGroup::generate`] inputs for larger
//! sizes if desired.

use crate::hmac::hmac_sha256;
use crate::rng::ChaChaRng;
use crate::sha256::Sha256;
use crate::uint::{Reciprocal, U256};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Number of Miller–Rabin rounds (error probability ≤ 4^-48).
const MR_ROUNDS: usize = 48;

const SMALL_PRIMES: [u64; 30] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113,
];

/// Miller–Rabin primality test for `U256` values.
pub fn is_prime_u256(n: U256, rng: &mut ChaChaRng) -> bool {
    if n < U256::from_u64(2) {
        return false;
    }
    for &sp in &SMALL_PRIMES {
        let spv = U256::from_u64(sp);
        if n == spv {
            return true;
        }
        // Trial division.
        let rec = Reciprocal::new(spv.max(U256::from_u64(2)));
        if rec.reduce(n).is_zero() {
            return false;
        }
    }
    let rec = Reciprocal::new(n);
    let n_minus_1 = n.wrapping_sub(U256::ONE);
    // n-1 = d * 2^s with d odd.
    let mut s = 0u32;
    let mut d = n_minus_1;
    while !d.is_odd() {
        d = d.shr(1);
        s += 1;
    }
    'witness: for _ in 0..MR_ROUNDS {
        // a in [2, n-2]
        let a = loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let cand = rec.reduce(U256::from_be_bytes(&bytes));
            if cand >= U256::from_u64(2) && cand < n_minus_1 {
                break cand;
            }
        };
        let mut x = rec.pow_mod(a, d);
        if x == U256::ONE || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = rec.mul_mod(x, x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random prime with exactly `bits` bits.
fn random_prime(bits: u32, rng: &mut ChaChaRng) -> U256 {
    assert!((16..=250).contains(&bits));
    loop {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        let mut cand = U256::from_be_bytes(&bytes).shr(256 - bits);
        // Force top and bottom bits.
        let top_limb = ((bits - 1) / 64) as usize;
        cand.0[top_limb] |= 1 << ((bits - 1) % 64);
        cand.0[0] |= 1;
        if is_prime_u256(cand, rng) {
            return cand;
        }
    }
}

/// A Schnorr group `(p, q, g)` with `p = k·q + 1` and `g` of order `q`.
#[derive(Debug, Clone)]
pub struct SchnorrGroup {
    p: U256,
    q: U256,
    g: U256,
    rec_p: Reciprocal,
    rec_q: Reciprocal,
}

impl SchnorrGroup {
    /// Deterministically generates a group from `seed` with a `q_bits`-bit
    /// subgroup order and roughly `q_bits + 32`-bit modulus.
    ///
    /// # Panics
    ///
    /// Panics if `q_bits` is outside `[64, 216]`.
    pub fn generate(seed: u64, q_bits: u32) -> Self {
        assert!((64..=216).contains(&q_bits), "q_bits out of range");
        let mut rng = ChaChaRng::from_seed(seed).fork("schnorr-group");
        let q = random_prime(q_bits, &mut rng);
        // Find even k such that p = k*q + 1 is prime.
        let (p, k) = loop {
            let k = (rng.next_u32() as u64 | 1) << 1; // random even 33-bit-ish value
            let (kq, carry) = q.carrying_mul_u64(k);
            if carry != 0 {
                continue;
            }
            let (p, overflow) = kq.overflowing_add(U256::ONE);
            if overflow || p.bits() > 250 {
                continue;
            }
            if is_prime_u256(p, &mut rng) {
                break (p, k);
            }
        };
        let rec_p = Reciprocal::new(p);
        let rec_q = Reciprocal::new(q);
        // g = h^k mod p for random h until g != 1.
        let g = loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let h = rec_p.reduce(U256::from_be_bytes(&bytes));
            if h < U256::from_u64(2) {
                continue;
            }
            let g = rec_p.pow_mod(h, U256::from_u64(k));
            if g != U256::ONE {
                break g;
            }
        };
        SchnorrGroup {
            p,
            q,
            g,
            rec_p,
            rec_q,
        }
    }

    /// The process-wide default group (lazily generated, deterministic).
    pub fn default_group() -> Arc<SchnorrGroup> {
        static GROUP: OnceLock<Arc<SchnorrGroup>> = OnceLock::new();
        GROUP
            .get_or_init(|| Arc::new(SchnorrGroup::generate(0x6865_7367_785f_6771, 160)))
            .clone()
    }

    /// The modulus `p`.
    pub fn p(&self) -> U256 {
        self.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> U256 {
        self.q
    }

    /// The generator `g`.
    pub fn g(&self) -> U256 {
        self.g
    }

    fn hash_challenge(&self, r: U256, pk: U256, message: &[u8]) -> U256 {
        let mut h = Sha256::new();
        h.update(b"hesgx-schnorr-v1");
        h.update(&r.to_be_bytes());
        h.update(&pk.to_be_bytes());
        h.update(message);
        let digest = h.finalize();
        self.rec_q.reduce(U256::from_be_bytes(&digest))
    }
}

/// A Schnorr signing key (secret scalar mod `q`).
#[derive(Clone)]
pub struct SigningKey {
    group: Arc<SchnorrGroup>,
    sk: U256,
    pk: U256,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The secret scalar must never reach a log line; print the public
        // half only (hesgx-lint: secret-debug).
        f.debug_struct("SigningKey")
            .field("pk", &self.pk)
            .field("sk", &"<redacted>")
            .finish()
    }
}

/// A Schnorr verification key (group element).
#[derive(Debug, Clone)]
pub struct VerifyingKey {
    group: Arc<SchnorrGroup>,
    pk: U256,
}

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Fiat–Shamir challenge.
    pub e: U256,
    /// Response scalar.
    pub s: U256,
}

impl Signature {
    /// Serializes the signature to 64 bytes.
    pub fn to_bytes(self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.e.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 64-byte signature.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let mut e = [0u8; 32];
        let mut s = [0u8; 32];
        e.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        Signature {
            e: U256::from_be_bytes(&e),
            s: U256::from_be_bytes(&s),
        }
    }
}

impl SigningKey {
    /// Generates a key pair on `group` from `rng`.
    pub fn generate(group: Arc<SchnorrGroup>, rng: &mut ChaChaRng) -> Self {
        let sk = loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let cand = group.rec_q.reduce(U256::from_be_bytes(&bytes));
            if !cand.is_zero() {
                break cand;
            }
        };
        let pk = group.rec_p.pow_mod(group.g, sk);
        SigningKey { group, sk, pk }
    }

    /// Returns the matching verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            group: self.group.clone(),
            pk: self.pk,
        }
    }

    /// Signs `message` with a deterministic (RFC 6979 style) nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        // Derive nonce from sk and message via HMAC; retry with a counter in
        // the (cryptographically negligible) case the nonce reduces to zero.
        let g = &self.group;
        let mut counter = 0u32;
        loop {
            let mut data = Vec::with_capacity(message.len() + 36);
            data.extend_from_slice(&self.sk.to_be_bytes());
            data.extend_from_slice(&counter.to_be_bytes());
            data.extend_from_slice(message);
            let nonce_bytes = hmac_sha256(b"hesgx-schnorr-nonce", &data);
            let k = g.rec_q.reduce(U256::from_be_bytes(&nonce_bytes));
            if k.is_zero() {
                counter += 1;
                continue;
            }
            let r = g.rec_p.pow_mod(g.g, k);
            let e = g.hash_challenge(r, self.pk, message);
            // s = k + e*sk mod q
            let esk = g.rec_q.mul_mod(e, self.sk);
            let s = g.rec_q.add_mod(k, esk);
            return Signature { e, s };
        }
    }
}

impl VerifyingKey {
    /// The public group element.
    pub fn element(&self) -> U256 {
        self.pk
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let g = &self.group;
        if signature.s >= g.q || signature.e >= g.q {
            return false;
        }
        // R' = g^s * pk^(q - e) mod p  (pk has order q, so pk^-e = pk^(q-e)).
        let gs = g.rec_p.pow_mod(g.g, signature.s);
        let exp = g.rec_q.sub_mod(U256::ZERO, signature.e);
        let pk_neg_e = g.rec_p.pow_mod(self.pk, exp);
        let r = g.rec_p.mul_mod(gs, pk_neg_e);
        crate::ct::ct_eq_u256(g.hash_challenge(r, self.pk, message), signature.e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_group() -> Arc<SchnorrGroup> {
        // Small-ish group for fast tests.
        static GROUP: OnceLock<Arc<SchnorrGroup>> = OnceLock::new();
        GROUP
            .get_or_init(|| Arc::new(SchnorrGroup::generate(99, 96)))
            .clone()
    }

    #[test]
    fn miller_rabin_known_values() {
        let mut rng = ChaChaRng::from_seed(0);
        assert!(is_prime_u256(U256::from_u64(2), &mut rng));
        assert!(is_prime_u256(U256::from_u64(12289), &mut rng));
        assert!(is_prime_u256(U256::from_u64((1 << 31) - 1), &mut rng));
        assert!(!is_prime_u256(U256::from_u64(1), &mut rng));
        assert!(!is_prime_u256(U256::from_u64(561), &mut rng)); // Carmichael
        assert!(!is_prime_u256(U256::from_u64(1 << 20), &mut rng));
    }

    #[test]
    fn group_structure() {
        let g = test_group();
        let mut rng = ChaChaRng::from_seed(1);
        assert!(is_prime_u256(g.p(), &mut rng));
        assert!(is_prime_u256(g.q(), &mut rng));
        // g has order q: g^q == 1.
        assert_eq!(g.rec_p.pow_mod(g.g(), g.q()), U256::ONE);
        assert_ne!(g.g(), U256::ONE);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let group = test_group();
        let mut rng = ChaChaRng::from_seed(2);
        let sk = SigningKey::generate(group, &mut rng);
        let vk = sk.verifying_key();
        let sig = sk.sign(b"attestation quote");
        assert!(vk.verify(b"attestation quote", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let group = test_group();
        let mut rng = ChaChaRng::from_seed(3);
        let sk = SigningKey::generate(group, &mut rng);
        let vk = sk.verifying_key();
        let sig = sk.sign(b"quote");
        assert!(!vk.verify(b"quot3", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let group = test_group();
        let mut rng = ChaChaRng::from_seed(4);
        let sk = SigningKey::generate(group, &mut rng);
        let vk = sk.verifying_key();
        let mut sig = sk.sign(b"quote");
        sig.s = sig.s.wrapping_add(U256::ONE);
        assert!(!vk.verify(b"quote", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let group = test_group();
        let mut rng = ChaChaRng::from_seed(5);
        let sk1 = SigningKey::generate(group.clone(), &mut rng);
        let sk2 = SigningKey::generate(group, &mut rng);
        let sig = sk1.sign(b"quote");
        assert!(!sk2.verifying_key().verify(b"quote", &sig));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let group = test_group();
        let mut rng = ChaChaRng::from_seed(6);
        let sk = SigningKey::generate(group, &mut rng);
        let sig = sk.sign(b"m");
        let restored = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(sig, restored);
        assert!(sk.verifying_key().verify(b"m", &restored));
    }

    #[test]
    fn deterministic_signatures() {
        let group = test_group();
        let mut rng = ChaChaRng::from_seed(7);
        let sk = SigningKey::generate(group, &mut rng);
        assert_eq!(sk.sign(b"m").to_bytes(), sk.sign(b"m").to_bytes());
        assert_ne!(sk.sign(b"m").to_bytes(), sk.sign(b"n").to_bytes());
    }
}
