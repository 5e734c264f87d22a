//! Constant-time comparison helpers.
//!
//! Every comparison over secret-dependent bytes in the workspace must go
//! through this module (enforced by `hesgx-lint`'s `const-time` rule): a
//! naive `==` over a MAC tag, KDF output, or Fiat–Shamir challenge short
//! circuits at the first mismatching byte, and the timing difference leaks
//! the index of that byte to an attacker who can submit guesses — the
//! classic HMAC-forgery oracle.
//!
//! [`ct_eq`] folds the XOR of every byte pair into one accumulator and only
//! inspects the accumulator at the end, so the data-dependent work is
//! identical for every input of a given length. The fold itself is factored
//! into `xor_fold` so tests can instrument it and prove that a first-byte
//! mismatch still visits the full slice.

use std::hint::black_box;

/// Visits `visit(i, a[i] ^ b[i])` for **every** index of two equal-length
/// slices, in order, with no data-dependent exit.
///
/// This is the single comparison kernel behind [`ct_eq`]; keeping it
/// separate lets the test suite count visits and assert the absence of an
/// early exit.
#[inline]
fn xor_fold(a: &[u8], b: &[u8], mut visit: impl FnMut(usize, u8)) {
    debug_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        visit(i, x ^ y);
    }
}

/// Constant-time byte-slice equality.
///
/// Returns `true` iff `a == b`. The comparison examines every byte pair
/// regardless of where the first difference occurs; only the (public)
/// lengths can influence timing. [`black_box`] keeps the optimizer from
/// re-introducing a short circuit.
///
/// # Examples
///
/// ```
/// use hesgx_crypto::ct::ct_eq;
///
/// assert!(ct_eq(b"tag-bytes", b"tag-bytes"));
/// assert!(!ct_eq(b"tag-bytes", b"tag-bytez"));
/// assert!(!ct_eq(b"short", b"longer"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        // Length is public information (message framing reveals it anyway).
        return false;
    }
    let mut acc = 0u8;
    xor_fold(a, b, |_, d| acc |= d);
    black_box(acc) == 0
}

/// Constant-time equality for fixed 32-byte values (digests, tags, keys).
#[must_use]
pub fn ct_eq_32(a: &[u8; 32], b: &[u8; 32]) -> bool {
    ct_eq(a, b)
}

/// Constant-time equality for [`crate::uint::U256`] values, via their
/// canonical big-endian encoding. Used for Fiat–Shamir challenge checks in
/// [`crate::schnorr`].
#[must_use]
pub fn ct_eq_u256(a: crate::uint::U256, b: crate::uint::U256) -> bool {
    ct_eq(&a.to_be_bytes(), &b.to_be_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_and_unequal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        let a = [7u8; 32];
        let mut b = a;
        assert!(ct_eq_32(&a, &b));
        b[31] ^= 1;
        assert!(!ct_eq_32(&a, &b));
    }

    #[test]
    fn no_early_exit_on_first_byte_mismatch() {
        // The fold must visit every byte even when byte 0 already differs;
        // an early-exit implementation would stop after one visit.
        let a = [0x00u8; 64];
        let mut b = [0x00u8; 64];
        b[0] = 0xff;
        let mut visited = Vec::new();
        xor_fold(&a, &b, |i, _| visited.push(i));
        assert_eq!(visited, (0..64).collect::<Vec<_>>());
        assert!(!ct_eq(&a, &b));
    }

    #[test]
    fn visit_count_independent_of_mismatch_position() {
        let a = [0xaau8; 48];
        for mismatch_at in [0usize, 1, 24, 47] {
            let mut b = a;
            b[mismatch_at] ^= 0x01;
            let mut count = 0usize;
            xor_fold(&a, &b, |_, _| count += 1);
            assert_eq!(count, a.len(), "mismatch at {mismatch_at}");
        }
    }

    #[test]
    fn u256_comparison() {
        use crate::uint::U256;
        let x = U256::from_u64(123_456);
        let y = U256::from_u64(123_457);
        assert!(ct_eq_u256(x, x));
        assert!(!ct_eq_u256(x, y));
    }
}
