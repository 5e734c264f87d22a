//! HKDF-style key derivation (RFC 5869, SHA-256 based).
//!
//! The TEE simulator derives sealing keys and report keys from the simulated
//! hardware root secret and the enclave measurement, mirroring SGX's
//! `EGETKEY` key-derivation tree.

use crate::hmac::hmac_sha256;

/// Extracts a pseudo-random key from input keying material.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// Expands a pseudo-random key into `len` bytes of output keying material.
///
/// # Panics
///
/// Panics if `len > 255 * 32` (the RFC 5869 limit).
pub fn expand(prk: &[u8; 32], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * 32, "hkdf expand length limit exceeded");
    let mut okm = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    // Block `i` (1-based) carries the counter byte `i`; the limit above
    // bounds the loop at block 255.
    for counter in 1..=255u8 {
        if okm.len() >= len {
            break;
        }
        let mut data = Vec::with_capacity(previous.len() + info.len() + 1);
        data.extend_from_slice(&previous);
        data.extend_from_slice(info);
        data.push(counter);
        let block = hmac_sha256(prk, &data);
        let take = (len - okm.len()).min(32);
        okm.extend_from_slice(&block[..take]);
        previous = block.to_vec();
    }
    okm
}

/// One-shot derive: `expand(extract(salt, ikm), info, 32)` as a fixed array.
pub fn derive_key(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let prk = extract(salt, ikm);
    let okm = expand(&prk, info, 32);
    let mut out = [0u8; 32];
    out.copy_from_slice(&okm);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0..13).collect();
        let info: Vec<u8> = (0xf0..0xfa).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn distinct_info_distinct_keys() {
        let a = derive_key(b"salt", b"root", b"seal");
        let b = derive_key(b"salt", b"root", b"report");
        assert_ne!(a, b);
    }

    #[test]
    fn expand_multi_block() {
        let prk = extract(b"s", b"k");
        let long = expand(&prk, b"ctx", 100);
        let short = expand(&prk, b"ctx", 32);
        assert_eq!(&long[..32], &short[..]);
        assert_eq!(long.len(), 100);
    }

    #[test]
    fn expand_reaches_the_rfc_limit() {
        let prk = extract(b"s", b"k");
        let full = expand(&prk, b"ctx", 255 * 32);
        assert_eq!(full.len(), 8160);
        assert_eq!(&full[..64], &expand(&prk, b"ctx", 64)[..]);
    }
}
