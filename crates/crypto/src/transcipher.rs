//! Transciphered-ingress framing: quantized pixels sealed under a cheap
//! symmetric stream cipher for upload, re-encrypted under FV inside the
//! enclave (the HHEML hybrid, DESIGN.md §17).
//!
//! A full FV ciphertext upload costs megabytes per image batch; the sealed
//! payload here costs four bytes per pixel plus a fixed header, because the
//! expensive encryption is deferred to the trusted side. The payload format
//! is encrypt-then-MAC:
//!
//! ```text
//! version (1) | nonce (12) | images (4, LE) | pixels (4, LE)
//!             | body: images × pixels × i32 LE, ChaCha20-encrypted
//!             | tag (32): HMAC-SHA256 over everything above
//! ```
//!
//! The shape fields travel in the clear — framing lengths are public — but
//! are authenticated by the tag, so an attacker can neither splice bodies
//! between payloads nor lie about the pixel count to desynchronize the
//! enclave's unpacking. [`MAX_BODY_LEN`] bounds attacker-sized payloads with
//! a recoverable error far below the ChaCha20 keystream capacity enforced by
//! [`crate::chacha20::xor_stream`], so the counter-overflow hard cap is
//! unreachable from this path.

use crate::chacha20::{self, NONCE_LEN};
use crate::ct::ct_eq;
use crate::hmac::hmac_sha256;
use crate::kdf;

/// Payload format version byte.
pub const VERSION: u8 = 1;
/// Authentication tag length (HMAC-SHA256).
pub const TAG_LEN: usize = 32;
/// Clear header: version, nonce, image count, pixels per image.
pub const HEADER_LEN: usize = 1 + NONCE_LEN + 4 + 4;
/// Bytes per packed pixel (`i32` little-endian).
pub const PIXEL_LEN: usize = 4;
/// Hard cap on the encrypted body. Quantized image batches are kilobytes;
/// 16 MiB leaves three orders of magnitude of headroom while keeping the
/// enclave's marshalled region — and the keystream consumption — bounded
/// against attacker-sized uploads.
pub const MAX_BODY_LEN: usize = 1 << 24;
/// First keystream block of the body (block 0 is reserved, mirroring the
/// RFC 8439 AEAD layout where it keys the authenticator).
const STREAM_COUNTER: u32 = 1;

/// Why a payload could not be sealed or opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranscipherError {
    /// The batch was empty or an image had no pixels.
    EmptyBatch,
    /// Images in one batch disagreed on their pixel count.
    RaggedBatch {
        /// Pixels in the first image.
        expected: usize,
        /// Pixels in the offending image.
        got: usize,
    },
    /// A quantized pixel did not fit the packed `i32` encoding.
    PixelOutOfRange(i64),
    /// The body would exceed [`MAX_BODY_LEN`].
    PayloadTooLarge {
        /// Bytes the body would need.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The payload was shorter than its framing requires.
    Truncated,
    /// The version byte was not [`VERSION`].
    VersionMismatch(u8),
    /// The authentication tag did not verify (tampered or wrong key).
    AuthFailed,
}

impl std::fmt::Display for TranscipherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranscipherError::EmptyBatch => write!(f, "transcipher payload carries no pixels"),
            TranscipherError::RaggedBatch { expected, got } => write!(
                f,
                "ragged batch: expected {expected} pixels per image, got {got}"
            ),
            TranscipherError::PixelOutOfRange(v) => {
                write!(
                    f,
                    "quantized pixel {v} does not fit the packed i32 encoding"
                )
            }
            TranscipherError::PayloadTooLarge { len, max } => {
                write!(
                    f,
                    "transcipher body of {len} bytes exceeds the {max}-byte cap"
                )
            }
            TranscipherError::Truncated => write!(f, "transcipher payload truncated"),
            TranscipherError::VersionMismatch(v) => {
                write!(f, "unsupported transcipher payload version {v}")
            }
            TranscipherError::AuthFailed => {
                write!(f, "transcipher payload failed authentication")
            }
        }
    }
}

impl std::error::Error for TranscipherError {}

/// The per-session symmetric ingress key: one ChaCha20 encryption key and
/// one HMAC key, both derived from the key-distribution handshake.
#[derive(Clone)]
pub struct IngressKey {
    enc: [u8; 32],
    mac: [u8; 32],
}

impl std::fmt::Debug for IngressKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material never reaches logs; print the type name only.
        f.debug_struct("IngressKey").finish_non_exhaustive()
    }
}

impl IngressKey {
    /// Derives the ingress key pair from handshake material via HKDF:
    /// `ikm` is the shared secret both ends hold after key distribution,
    /// `salt` binds the derivation to the session's public context (e.g.
    /// the attested public-key digest), and `info` domain-separates this
    /// use from every other derivation in the tree.
    pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8]) -> IngressKey {
        let prk = kdf::extract(salt, ikm);
        let mut okm = [0u8; 64];
        let mut label = Vec::with_capacity(info.len() + 5);
        label.extend_from_slice(info);
        label.extend_from_slice(b".keys");
        okm.copy_from_slice(&kdf::expand(&prk, &label, 64));
        let mut enc = [0u8; 32];
        let mut mac = [0u8; 32];
        enc.copy_from_slice(&okm[..32]);
        mac.copy_from_slice(&okm[32..]);
        IngressKey { enc, mac }
    }
}

/// Serialized payload size for a batch of `images` × `pixels` — the
/// upload-bytes figure the serve books account against the FV-ciphertext
/// alternative.
pub fn payload_len(images: usize, pixels: usize) -> usize {
    HEADER_LEN + images * pixels * PIXEL_LEN + TAG_LEN
}

/// Packs and seals a quantized image batch under `key` with a fresh,
/// caller-provided `nonce` (unique per payload; the session derives it from
/// its deterministic request stream).
///
/// # Errors
///
/// Rejects empty or ragged batches, pixels outside the packed `i32` range,
/// and bodies beyond [`MAX_BODY_LEN`].
pub fn seal_images(
    key: &IngressKey,
    nonce: &[u8; NONCE_LEN],
    images: &[Vec<i64>],
) -> Result<Vec<u8>, TranscipherError> {
    let Some(first) = images.first() else {
        return Err(TranscipherError::EmptyBatch);
    };
    let pixels = first.len();
    if pixels == 0 {
        return Err(TranscipherError::EmptyBatch);
    }
    for image in images {
        if image.len() != pixels {
            return Err(TranscipherError::RaggedBatch {
                expected: pixels,
                got: image.len(),
            });
        }
    }
    let body_len = images.len() * pixels * PIXEL_LEN;
    if body_len > MAX_BODY_LEN {
        return Err(TranscipherError::PayloadTooLarge {
            len: body_len,
            max: MAX_BODY_LEN,
        });
    }
    let image_count =
        u32::try_from(images.len()).map_err(|_| TranscipherError::PayloadTooLarge {
            len: body_len,
            max: MAX_BODY_LEN,
        })?;
    let pixel_count = u32::try_from(pixels).map_err(|_| TranscipherError::PayloadTooLarge {
        len: body_len,
        max: MAX_BODY_LEN,
    })?;

    let mut payload = Vec::with_capacity(payload_len(images.len(), pixels));
    payload.push(VERSION);
    payload.extend_from_slice(nonce);
    payload.extend_from_slice(&image_count.to_le_bytes());
    payload.extend_from_slice(&pixel_count.to_le_bytes());
    for image in images {
        for &v in image {
            let packed = i32::try_from(v).map_err(|_| TranscipherError::PixelOutOfRange(v))?;
            payload.extend_from_slice(&packed.to_le_bytes());
        }
    }
    chacha20::xor_stream(&key.enc, STREAM_COUNTER, nonce, &mut payload[HEADER_LEN..]);
    let auth = hmac_sha256(&key.mac, &payload);
    payload.extend_from_slice(&auth);
    Ok(payload)
}

/// Refuses a payload too short for a header and a tag, or of another
/// version.
fn check_version(payload: &[u8]) -> Result<(), TranscipherError> {
    if payload.len() < HEADER_LEN + TAG_LEN {
        return Err(TranscipherError::Truncated);
    }
    match payload[0] {
        VERSION => Ok(()),
        other => Err(TranscipherError::VersionMismatch(other)),
    }
}

/// Reads the clear shape fields `(images, pixels_per_image)` from a
/// payload's header without authenticating it. Framing lengths are public;
/// callers use this only to size marshalling regions up front. It refuses
/// everything [`open_images`]' framing refuses — a zero dimension, a body
/// past [`MAX_BODY_LEN`], a length that disagrees with the shape — and
/// [`open_images`] re-reads the shape through it after the tag verifies, so
/// a lying header can neither inflate a size estimate nor desynchronize
/// unpacking.
///
/// # Errors
///
/// Fails on truncation, version mismatch, an empty or oversized claimed
/// body, or a payload length other than the claimed shape's.
pub fn peek_shape(payload: &[u8]) -> Result<(usize, usize), TranscipherError> {
    check_version(payload)?;
    let field = |at: usize| {
        let word = [
            payload[at],
            payload[at + 1],
            payload[at + 2],
            payload[at + 3],
        ];
        u32::from_le_bytes(word) as usize
    };
    let (images, pixels) = (field(1 + NONCE_LEN), field(5 + NONCE_LEN));
    if images == 0 || pixels == 0 {
        return Err(TranscipherError::EmptyBatch);
    }
    let body_len = images.saturating_mul(pixels).saturating_mul(PIXEL_LEN);
    if body_len > MAX_BODY_LEN {
        return Err(TranscipherError::PayloadTooLarge {
            len: body_len,
            max: MAX_BODY_LEN,
        });
    }
    if payload.len() != HEADER_LEN + body_len + TAG_LEN {
        return Err(TranscipherError::Truncated);
    }
    Ok((images, pixels))
}

/// Authenticates and opens a sealed payload, returning the quantized image
/// batch. The inverse of [`seal_images`]; runs inside the enclave.
///
/// # Errors
///
/// Fails on truncation, version mismatch, an invalid tag (verified in
/// constant time before any decryption), or a framing [`peek_shape`]
/// refuses.
pub fn open_images(key: &IngressKey, payload: &[u8]) -> Result<Vec<Vec<i64>>, TranscipherError> {
    check_version(payload)?;
    let (framed, auth) = payload.split_at(payload.len() - TAG_LEN);
    let expected = hmac_sha256(&key.mac, framed);
    if !ct_eq(&expected, auth) {
        return Err(TranscipherError::AuthFailed);
    }
    let (images, pixels) = peek_shape(payload)?;

    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&framed[1..1 + NONCE_LEN]);
    let mut body = framed[HEADER_LEN..].to_vec();
    chacha20::xor_stream(&key.enc, STREAM_COUNTER, &nonce, &mut body);
    let mut batch = Vec::with_capacity(images);
    for image_idx in 0..images {
        let mut image = Vec::with_capacity(pixels);
        for pixel_idx in 0..pixels {
            let at = (image_idx * pixels + pixel_idx) * PIXEL_LEN;
            let packed = i32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
            image.push(i64::from(packed));
        }
        batch.push(image);
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> IngressKey {
        IngressKey::derive(b"session-salt", b"handshake-ikm", b"hesgx-ingress-test")
    }

    fn batch() -> Vec<Vec<i64>> {
        vec![vec![0, 1, -2, 127, -128], vec![5, 6, 7, 8, 9]]
    }

    #[test]
    fn seal_open_roundtrip() {
        let nonce = [7u8; NONCE_LEN];
        let payload = seal_images(&key(), &nonce, &batch()).unwrap();
        assert_eq!(payload.len(), payload_len(2, 5));
        assert_eq!(open_images(&key(), &payload).unwrap(), batch());
    }

    #[test]
    fn payload_is_deterministic_per_nonce_and_fresh_per_nonce() {
        let a = seal_images(&key(), &[1u8; NONCE_LEN], &batch()).unwrap();
        let b = seal_images(&key(), &[1u8; NONCE_LEN], &batch()).unwrap();
        let c = seal_images(&key(), &[2u8; NONCE_LEN], &batch()).unwrap();
        assert_eq!(a, b);
        assert_ne!(a[HEADER_LEN..], c[HEADER_LEN..]);
    }

    #[test]
    fn tampering_any_byte_fails_auth() {
        let payload = seal_images(&key(), &[3u8; NONCE_LEN], &batch()).unwrap();
        for at in [0, 1, HEADER_LEN, payload.len() - 1] {
            let mut bad = payload.clone();
            bad[at] ^= 1;
            let got = open_images(&key(), &bad);
            assert!(
                matches!(
                    got,
                    Err(TranscipherError::AuthFailed) | Err(TranscipherError::VersionMismatch(_))
                ),
                "byte {at}: {got:?}"
            );
        }
    }

    #[test]
    fn wrong_key_fails_auth() {
        let payload = seal_images(&key(), &[4u8; NONCE_LEN], &batch()).unwrap();
        let other = IngressKey::derive(b"session-salt", b"different-ikm", b"hesgx-ingress-test");
        assert_eq!(
            open_images(&other, &payload),
            Err(TranscipherError::AuthFailed)
        );
    }

    #[test]
    fn shape_and_range_errors_are_reported() {
        let nonce = [0u8; NONCE_LEN];
        assert_eq!(
            seal_images(&key(), &nonce, &[]),
            Err(TranscipherError::EmptyBatch)
        );
        assert_eq!(
            seal_images(&key(), &nonce, &[vec![]]),
            Err(TranscipherError::EmptyBatch)
        );
        assert_eq!(
            seal_images(&key(), &nonce, &[vec![1, 2], vec![3]]),
            Err(TranscipherError::RaggedBatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            seal_images(&key(), &nonce, &[vec![i64::from(i32::MAX) + 1]]),
            Err(TranscipherError::PixelOutOfRange(i64::from(i32::MAX) + 1))
        );
    }

    #[test]
    fn oversized_body_is_refused_before_any_crypto() {
        let nonce = [0u8; NONCE_LEN];
        let image = vec![0i64; MAX_BODY_LEN / PIXEL_LEN + 1];
        assert!(matches!(
            seal_images(&key(), &nonce, std::slice::from_ref(&image)),
            Err(TranscipherError::PayloadTooLarge { .. })
        ));
    }

    /// A header of no image of no pixel — or of `u32::MAX` images of none,
    /// the claim that would price `4·10⁹` ciphertexts of out-marshalling — or
    /// of a body past the cap is refused unauthenticated, as the opening
    /// refuses it.
    #[test]
    fn peek_shape_refuses_the_headers_open_images_refuses() {
        let header = |images: u32, pixels: u32, body: usize| {
            let mut payload = vec![VERSION];
            payload.extend_from_slice(&[0u8; NONCE_LEN]);
            payload.extend_from_slice(&images.to_le_bytes());
            payload.extend_from_slice(&pixels.to_le_bytes());
            payload.resize(HEADER_LEN + body + TAG_LEN, 0);
            payload
        };
        let empty = header(u32::MAX, 0, 0);
        assert_eq!(empty.len(), 53);
        assert_eq!(peek_shape(&empty), Err(TranscipherError::EmptyBatch));
        assert_eq!(
            peek_shape(&header(0, 5, 0)),
            Err(TranscipherError::EmptyBatch)
        );
        let past = (MAX_BODY_LEN / PIXEL_LEN + 1) as u32;
        assert!(matches!(
            peek_shape(&header(1, past, 0)),
            Err(TranscipherError::PayloadTooLarge { .. })
        ));
        assert!(matches!(
            peek_shape(&header(u32::MAX, u32::MAX, 0)),
            Err(TranscipherError::PayloadTooLarge { .. })
        ));
        assert_eq!(peek_shape(&header(2, 3, 24)), Ok((2, 3)));
        assert_eq!(
            peek_shape(&header(2, 3, 23)),
            Err(TranscipherError::Truncated)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes and mutated valid payloads, half of them re-tagged
        /// under the key so that framing is all that can refuse them:
        /// neither function panics, a payload `peek_shape` accepts passes
        /// every framing check of `open_images` (it fails, if at all, on its
        /// tag), and `open_images` opens nothing `peek_shape` refuses.
        #[test]
        fn peek_shape_accepts_exactly_what_open_images_frames(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            images in 1usize..4, pixels in 1usize..6, arbitrary in proptest::prelude::any::<bool>(),
            at in proptest::prelude::any::<usize>(), value in proptest::prelude::any::<u8>(),
            cut in 0usize..3, retag in proptest::prelude::any::<bool>(),
        ) {
            let key = key();
            let mut payload = match arbitrary {
                true => bytes,
                false => {
                    let batch = vec![vec![3i64; pixels]; images];
                    seal_images(&key, &[7u8; NONCE_LEN], &batch).unwrap()
                }
            };
            if !payload.is_empty() {
                let at = at % payload.len();
                payload[at] = value;
                payload.truncate(payload.len() - cut.min(at));
            }
            if retag && payload.len() >= TAG_LEN {
                let framed = payload.len() - TAG_LEN;
                let tag = hmac_sha256(&key.mac, &payload[..framed]);
                payload[framed..].copy_from_slice(&tag);
            }
            let peeked = peek_shape(&payload);
            let opened = open_images(&key, &payload);
            match (peeked, opened) {
                (Ok(shape), Ok(batch)) => {
                    proptest::prop_assert_eq!(shape, (batch.len(), batch[0].len()));
                }
                (Ok(_), Err(err)) => {
                    proptest::prop_assert_eq!(err, TranscipherError::AuthFailed);
                    proptest::prop_assert!(!retag);
                }
                (Err(err), Ok(_)) => proptest::prop_assert!(false, "opened what peek refused: {}", err),
                (Err(_), Err(_)) => {}
            }
        }
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let payload = seal_images(&key(), &[6u8; NONCE_LEN], &batch()).unwrap();
        assert_eq!(
            open_images(&key(), &payload[..HEADER_LEN + TAG_LEN - 1]),
            Err(TranscipherError::Truncated)
        );
        // A body length disagreeing with the authenticated shape fields is
        // caught after auth (the tag no longer matches the truncation).
        assert_eq!(
            open_images(&key(), &payload[..payload.len() - 1]),
            Err(TranscipherError::AuthFailed)
        );
    }
}
