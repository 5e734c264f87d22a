//! Sealed storage: encrypt-then-MAC blobs bound to an enclave measurement,
//! the `sgx_seal_data` analogue.

use crate::error::{Result, TeeError};
use hesgx_crypto::chacha20;
use hesgx_crypto::hmac::{hmac_sha256, verify_tag};
use hesgx_crypto::kdf;
use serde::{Deserialize, Serialize};

/// An encrypted, integrity-protected blob only the sealing enclave identity
/// (on the same platform) can open.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedBlob {
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
    tag: [u8; 32],
}

impl std::fmt::Debug for SealedBlob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Sealed blobs are registry types: dumping ciphertext bytes into logs
        // invites offline analysis, so print sizes only
        // (hesgx-lint: secret-debug).
        f.debug_struct("SealedBlob")
            .field("byte_len", &self.byte_len())
            .finish()
    }
}

impl SealedBlob {
    /// Serialized length in bytes.
    pub fn byte_len(&self) -> usize {
        12 + self.ciphertext.len() + 32
    }

    /// Silently damages the blob's integrity tag — the fault-injection model
    /// of a sealed blob rotting on untrusted storage. The damage is only
    /// detectable at the next unseal, exactly like real bit rot.
    pub(crate) fn corrupt(&mut self) {
        self.tag[0] ^= 1;
    }
}

/// Derives the sealing key for `(platform_secret, measurement)` — the
/// `EGETKEY(SEAL_KEY, MRENCLAVE policy)` analogue.
pub(crate) fn sealing_key(platform_secret: &[u8; 32], measurement: &[u8; 32]) -> [u8; 32] {
    kdf::derive_key(measurement, platform_secret, b"hesgx-seal-mrenclave")
}

/// Seals `data` under the derived key. `nonce_seed` must be unique per blob
/// (the enclave uses a monotonic counter).
pub(crate) fn seal(
    platform_secret: &[u8; 32],
    measurement: &[u8; 32],
    nonce_seed: u64,
    data: &[u8],
) -> SealedBlob {
    let key = sealing_key(platform_secret, measurement);
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&nonce_seed.to_le_bytes());
    let mut ciphertext = data.to_vec();
    chacha20::xor_stream(&key, 1, &nonce, &mut ciphertext);
    let mut mac_input = Vec::with_capacity(12 + ciphertext.len());
    mac_input.extend_from_slice(&nonce);
    mac_input.extend_from_slice(&ciphertext);
    let tag = hmac_sha256(&key, &mac_input);
    SealedBlob {
        nonce,
        ciphertext,
        tag,
    }
}

/// Unseals a blob; verifies the MAC before decrypting.
pub(crate) fn unseal(
    platform_secret: &[u8; 32],
    measurement: &[u8; 32],
    blob: &SealedBlob,
) -> Result<Vec<u8>> {
    let key = sealing_key(platform_secret, measurement);
    let mut mac_input = Vec::with_capacity(12 + blob.ciphertext.len());
    mac_input.extend_from_slice(&blob.nonce);
    mac_input.extend_from_slice(&blob.ciphertext);
    let tag = hmac_sha256(&key, &mac_input);
    if !verify_tag(&tag, &blob.tag) {
        return Err(TeeError::SealedBlobCorrupted);
    }
    let mut plaintext = blob.ciphertext.clone();
    chacha20::xor_stream(&key, 1, &blob.nonce, &mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECRET: [u8; 32] = [9; 32];
    const MR_A: [u8; 32] = [1; 32];
    const MR_B: [u8; 32] = [2; 32];

    #[test]
    fn seal_unseal_roundtrip() {
        let blob = seal(&SECRET, &MR_A, 1, b"model weights");
        assert_eq!(unseal(&SECRET, &MR_A, &blob).unwrap(), b"model weights");
    }

    #[test]
    fn different_enclave_cannot_unseal() {
        let blob = seal(&SECRET, &MR_A, 1, b"secret");
        assert_eq!(
            unseal(&SECRET, &MR_B, &blob),
            Err(TeeError::SealedBlobCorrupted)
        );
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let blob = seal(&SECRET, &MR_A, 1, b"secret");
        let other_secret = [8u8; 32];
        assert_eq!(
            unseal(&other_secret, &MR_A, &blob),
            Err(TeeError::SealedBlobCorrupted)
        );
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let mut blob = seal(&SECRET, &MR_A, 1, b"secret");
        blob.ciphertext[0] ^= 1;
        assert_eq!(
            unseal(&SECRET, &MR_A, &blob),
            Err(TeeError::SealedBlobCorrupted)
        );
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let a = seal(&SECRET, &MR_A, 1, b"same data");
        let b = seal(&SECRET, &MR_A, 2, b"same data");
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// One damage to a sealed blob — a flipped bit of its nonce,
        /// ciphertext or tag, a truncated ciphertext, or an appended byte —
        /// and `unseal` refuses it; the untouched blob opens to the payload.
        #[test]
        fn tampered_blob_never_unseals(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..200),
            damage in 0u8..5, at in proptest::prelude::any::<usize>(), bit in 0u8..8,
            extra in proptest::prelude::any::<u8>(),
        ) {
            let blob = seal(&SECRET, &MR_A, 7, &payload);
            proptest::prop_assert_eq!(unseal(&SECRET, &MR_A, &blob), Ok(payload));
            let mut tampered = blob;
            match damage {
                0 => tampered.nonce[at % 12] ^= 1 << bit,
                1 => {
                    let len = tampered.ciphertext.len();
                    tampered.ciphertext[at % len] ^= 1 << bit;
                }
                2 => tampered.tag[at % 32] ^= 1 << bit,
                3 => {
                    let len = tampered.ciphertext.len();
                    tampered.ciphertext.truncate(at % len);
                }
                _ => tampered.ciphertext.push(extra),
            }
            proptest::prop_assert_eq!(
                unseal(&SECRET, &MR_A, &tampered),
                Err(TeeError::SealedBlobCorrupted)
            );
        }
    }
}
