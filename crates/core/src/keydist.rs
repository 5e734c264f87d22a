//! Key distribution without a trusted third party (paper §IV-A).
//!
//! The classic HE deployment (paper Fig. 1) needs a PKI-style trusted third
//! party to hand the homomorphic keys to users and the relinearization keys
//! to the edge server. The hybrid framework replaces it with the enclave:
//!
//! 1. The inference enclave generates the FV key material **inside** during
//!    set-up (`ecall_generate_key`).
//! 2. The secret keys never leave the enclave unsealed; a sealed copy allows
//!    restarts.
//! 3. The enclave binds a digest of the public keys into the attestation
//!    report's *user data* field; the quoting enclave signs it; the user
//!    verifies the quote against the attestation service and the expected
//!    enclave measurement, then accepts the matching public keys.
//!
//! So the user ends up with keys that provably came from the right code on a
//! genuine platform — no extra trusted party, and the relinearization-key
//! shipping problem disappears entirely because the enclave refreshes noise
//! by decrypt–re-encrypt instead (paper §IV-E).

use crate::error::{Error, Result};
use hesgx_bfv::prelude::{PublicKey, SecretKey};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::sha256::Sha256;
use hesgx_crypto::transcipher::IngressKey;
use hesgx_henn::crt::{CrtKeys, CrtPlainSystem};
use hesgx_tee::attestation::{AttestationService, Quote};
use hesgx_tee::cost::CostBreakdown;
use hesgx_tee::enclave::Enclave;
use hesgx_tee::error::TeeError;

/// Canonical digest of a set of public keys (bound into attestation user
/// data; the real SGX user-data field is 64 bytes, so a hash is the natural
/// encoding for bulk material).
pub fn digest_public_keys(keys: &[PublicKey]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"hesgx-pubkeys-v1");
    for key in keys {
        h.update(key.context_id());
        // Hash the key polynomials through their serde-independent raw form.
        let bytes = key_bytes(key);
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    h.finalize()
}

fn key_bytes(key: &PublicKey) -> Vec<u8> {
    // A stable byte encoding: context id is included above; here the limb data.
    let mut out = Vec::new();
    for poly in [key.p0_limbs(), key.p1_limbs()] {
        for limb in poly {
            for &v in limb {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

/// The outcome of the enclave key ceremony: what the *user* receives over the
/// attested channel.
///
/// Per the paper §IV-A, the enclave "generates the homomorphic parameters and
/// public/private keys in SGX and sends public/private to users as customized
/// data" — so the user gets both halves (the quote's user-data digest binds
/// the public keys; the private half rides the same attested channel, which a
/// production system would additionally encrypt with an ephemeral key
/// exchange). The enclave retains its own copy of the secret keys for
/// in-enclave decryption ([`crate::sgx_ops::InferenceEnclave`]).
#[derive(Debug)]
pub struct KeyCeremonyPublic {
    /// Public keys (one per CRT plaintext modulus).
    pub public: Vec<PublicKey>,
    /// The user's copy of the secret keys (encrypting requests, decrypting results).
    pub user_secret: Vec<SecretKey>,
    /// Signed quote whose user data commits to [`digest_public_keys`].
    pub quote: Quote,
    /// Virtual-time cost of the in-enclave key generation.
    pub keygen_cost: CostBreakdown,
}

/// Runs `ecall_generate_key` inside `enclave`: generates keys for every CRT
/// modulus, returns the public half plus an attested commitment, and hands
/// the secret half back for the enclave wrapper to retain.
///
/// # Errors
///
/// Fails when the enclave heap cannot hold the key material or the freshly
/// generated report does not verify on this platform.
pub fn enclave_generate_keys(
    enclave: &Enclave,
    sys: &CrtPlainSystem,
    rng: &mut ChaChaRng,
) -> Result<(CrtKeys, KeyCeremonyPublic)> {
    // Key generation runs inside the enclave; the returned CrtKeys stays with
    // the trusted wrapper (simulation stand-in for enclave-resident state).
    let (keys, keygen_cost) = enclave.ecall("ecall_generate_key", 0, 4096, |ctx| {
        // Key material occupies the enclave heap's base pages.
        ctx.touch(64 * 1024).map_err(Error::Tee)?;
        Ok::<_, Error>(sys.generate_keys(rng))
    });
    let keys = keys?;
    let digest = digest_public_keys(&keys.public);
    let report = enclave.create_report(digest.to_vec());
    let quote = enclave
        .platform()
        .quoting_enclave()
        .quote(&report)
        .map_err(Error::Tee)?;
    let public = keys.public.clone();
    let user_secret = keys.secret.clone();
    Ok((
        keys,
        KeyCeremonyPublic {
            public,
            user_secret,
            quote,
            keygen_cost,
        },
    ))
}

/// Client-side verification: checks the quote chain and the key digest, and
/// returns the now-trusted public keys.
///
/// # Errors
///
/// Fails when the quote does not verify, the enclave measurement is not the
/// expected one, or the keys do not match the attested digest.
pub fn verify_key_ceremony(
    service: &AttestationService,
    ceremony: &KeyCeremonyPublic,
    expected_measurement: &[u8; 32],
) -> std::result::Result<Vec<PublicKey>, TeeError> {
    let verified = service.verify_expecting(&ceremony.quote, expected_measurement)?;
    let digest = digest_public_keys(&ceremony.public);
    if verified.user_data != digest {
        return Err(TeeError::QuoteSignatureInvalid);
    }
    Ok(ceremony.public.clone())
}

/// Canonical byte encoding of the secret keys — what gets sealed, and what
/// [`crate::pipeline::HybridInference::verify_sealed_state`] compares an
/// unsealed blob against.
pub(crate) fn secret_key_bytes(secret: &[SecretKey]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for key in secret {
        bytes.extend_from_slice(key.context_id());
        for limb in key.s_limbs() {
            for &v in limb {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    bytes
}

/// Seals the secret keys to the enclave identity for persistence across
/// restarts (returns the sealed blob the untrusted side may store).
pub fn seal_secret_keys(enclave: &Enclave, secret: &[SecretKey]) -> hesgx_tee::sealing::SealedBlob {
    enclave.seal(&secret_key_bytes(secret)).0
}

/// Derives the per-session transcipher ingress key from the key-distribution
/// handshake (DESIGN.md §17). Both ends can compute it independently after
/// the ceremony: the FV secret keys — which the user received over the
/// attested channel and the enclave retains — are the input key material,
/// the attested public-key digest is the salt (binding the derivation to
/// this ceremony), and a fixed info string domain-separates the use. No
/// extra round trip, and nothing new crosses the wire.
pub fn derive_ingress_key(public: &[PublicKey], secret: &[SecretKey]) -> IngressKey {
    IngressKey::derive(
        &digest_public_keys(public),
        &secret_key_bytes(secret),
        b"hesgx-transcipher-ingress-v1",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_tee::enclave::{EnclaveBuilder, Platform};

    fn setup() -> (
        std::sync::Arc<Platform>,
        Enclave,
        CrtPlainSystem,
        AttestationService,
    ) {
        let platform = Platform::new(11);
        let enclave = EnclaveBuilder::new("hesgx-inference")
            .add_code(b"hybrid-inference-v1")
            .build(platform.clone());
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut service = AttestationService::new();
        service.register_platform(platform.quoting_enclave());
        (platform, enclave, sys, service)
    }

    #[test]
    fn ceremony_round_trip() {
        let (_platform, enclave, sys, service) = setup();
        let mut rng = ChaChaRng::from_seed(81);
        let (keys, ceremony) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        let accepted = verify_key_ceremony(&service, &ceremony, enclave.measurement()).unwrap();
        assert_eq!(accepted.len(), 1);
        assert_eq!(&accepted[0], &keys.public[0]);
        assert!(ceremony.keygen_cost.total_ns() > 0);
    }

    #[test]
    fn substituted_keys_rejected() {
        let (_platform, enclave, sys, service) = setup();
        let mut rng = ChaChaRng::from_seed(82);
        let (_, mut ceremony) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        // Man-in-the-middle swaps in their own public keys.
        let evil = sys.generate_keys(&mut rng);
        ceremony.public = evil.public;
        assert!(verify_key_ceremony(&service, &ceremony, enclave.measurement()).is_err());
    }

    #[test]
    fn wrong_enclave_build_rejected() {
        let (platform, enclave, sys, service) = setup();
        let mut rng = ChaChaRng::from_seed(83);
        let (_, ceremony) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        let other = EnclaveBuilder::new("hesgx-inference")
            .add_code(b"hybrid-inference-v2-TAMPERED")
            .build(platform);
        assert!(matches!(
            verify_key_ceremony(&service, &ceremony, other.measurement()),
            Err(TeeError::MeasurementMismatch { .. })
        ));
    }

    #[test]
    fn unregistered_platform_rejected() {
        let (_platform, enclave, sys, _service) = setup();
        let mut rng = ChaChaRng::from_seed(84);
        let (_, ceremony) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        let empty_service = AttestationService::new();
        assert_eq!(
            verify_key_ceremony(&empty_service, &ceremony, enclave.measurement()).unwrap_err(),
            TeeError::UnknownPlatform
        );
    }

    #[test]
    fn digest_is_key_sensitive() {
        let (_p, _e, sys, _s) = setup();
        let mut rng = ChaChaRng::from_seed(85);
        let a = sys.generate_keys(&mut rng);
        let b = sys.generate_keys(&mut rng);
        assert_ne!(digest_public_keys(&a.public), digest_public_keys(&b.public));
    }

    #[test]
    fn ingress_key_agrees_across_the_handshake() {
        let (_platform, enclave, sys, _service) = setup();
        let mut rng = ChaChaRng::from_seed(87);
        let (keys, ceremony) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        // The user derives from the ceremony material, the enclave from its
        // retained keys; a payload sealed on one end opens on the other.
        let user_key = derive_ingress_key(&ceremony.public, &ceremony.user_secret);
        let enclave_key = derive_ingress_key(&keys.public, &keys.secret);
        let batch = vec![vec![1i64, -2, 3]];
        let payload =
            hesgx_crypto::transcipher::seal_images(&user_key, &[1u8; 12], &batch).unwrap();
        assert_eq!(
            hesgx_crypto::transcipher::open_images(&enclave_key, &payload).unwrap(),
            batch
        );
    }

    #[test]
    fn ingress_key_differs_across_ceremonies() {
        let (_platform, enclave, sys, _service) = setup();
        let mut rng = ChaChaRng::from_seed(88);
        let (keys_a, _) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        let (keys_b, _) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        let batch = vec![vec![7i64]];
        let payload = hesgx_crypto::transcipher::seal_images(
            &derive_ingress_key(&keys_a.public, &keys_a.secret),
            &[2u8; 12],
            &batch,
        )
        .unwrap();
        assert!(hesgx_crypto::transcipher::open_images(
            &derive_ingress_key(&keys_b.public, &keys_b.secret),
            &payload,
        )
        .is_err());
    }

    #[test]
    fn secret_keys_seal_and_restore() {
        let (_platform, enclave, sys, _service) = setup();
        let mut rng = ChaChaRng::from_seed(86);
        let (keys, _) = enclave_generate_keys(&enclave, &sys, &mut rng).unwrap();
        let blob = seal_secret_keys(&enclave, &keys.secret);
        let (restored, _) = enclave.unseal(&blob);
        assert!(restored.is_ok());
        assert!(!restored.unwrap().is_empty());
    }
}
