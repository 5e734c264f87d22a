//! SEAL-style integer encoder: signed binary digit expansion.

use crate::error::{BfvError, Result};
use crate::plaintext::Plaintext;

/// Encodes a signed integer as a polynomial with digits in `{-1, 0, 1}`
/// (binary expansion; negative values negate every digit).
///
/// Compared to [`crate::encoding::ScalarEncoder`], the plaintext ℓ1 norm is
/// the number of set bits rather than the value itself, so ciphertext ×
/// plaintext noise growth is logarithmic in the weight magnitude — the reason
/// CryptoNets-style pipelines (paper \[16\]) use this encoding.
///
/// Decoding evaluates the polynomial at `x = 2` after a centered lift of every
/// coefficient, so it remains correct after homomorphic additions and
/// multiplications as long as (a) no coefficient magnitude reaches `t/2` and
/// (b) the digit expansion never wraps degree `n`.
#[derive(Debug, Clone)]
pub struct IntegerEncoder {
    t: u64,
    degree_limit: usize,
}

impl IntegerEncoder {
    /// Creates an encoder for plaintext modulus `t` and ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 4` or `n < 64`.
    pub fn new(plain_modulus: u64, poly_degree: usize) -> Self {
        assert!(plain_modulus >= 4);
        assert!(poly_degree >= 64);
        IntegerEncoder {
            t: plain_modulus,
            degree_limit: poly_degree,
        }
    }

    /// Encodes `value` into its binary digit polynomial.
    ///
    /// # Errors
    ///
    /// Fails when the expansion would exceed the ring degree.
    pub fn encode(&self, value: i64) -> Result<Plaintext> {
        let negative = value < 0;
        let mut mag = value.unsigned_abs();
        let mut coeffs = Vec::new();
        while mag > 0 {
            let bit = mag & 1;
            coeffs.push(if bit == 1 {
                if negative {
                    self.t - 1 // -1 mod t
                } else {
                    1
                }
            } else {
                0
            });
            mag >>= 1;
        }
        if coeffs.len() > self.degree_limit {
            return Err(BfvError::EncodeOutOfRange(value));
        }
        if coeffs.is_empty() {
            coeffs.push(0);
        }
        Ok(Plaintext::from_coeffs(coeffs))
    }

    /// Decodes by evaluating at `x = 2` with centered coefficients.
    ///
    /// # Errors
    ///
    /// Fails when the accumulated value overflows `i64` (the plaintext no
    /// longer represents a valid encoded integer).
    pub fn decode(&self, plain: &Plaintext) -> Result<i64> {
        let half = self.t / 2;
        let mut acc: i128 = 0;
        for &c in plain.coeffs().iter().rev() {
            let signed = if c > half {
                c as i128 - self.t as i128
            } else {
                c as i128
            };
            acc = acc * 2 + signed;
            if acc.abs() > i64::MAX as i128 {
                return Err(BfvError::EncodeOutOfRange(i64::MAX));
            }
        }
        Ok(acc as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> IntegerEncoder {
        IntegerEncoder::new(65537, 1024)
    }

    #[test]
    fn roundtrip_values() {
        let e = enc();
        for v in [0i64, 1, -1, 2, -2, 255, -255, 123_456_789, -987_654_321] {
            assert_eq!(e.decode(&e.encode(v).unwrap()).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn low_norm_plaintexts() {
        let e = enc();
        let pt = e.encode(255).unwrap();
        // 255 = 0b11111111: eight 1-digits, norm 1 each.
        assert_eq!(pt.coeffs().len(), 8);
        assert!(pt.coeffs().iter().all(|&c| c == 1));
        let pt = e.encode(-5).unwrap();
        assert_eq!(pt.coeffs(), &[65536, 0, 65536]); // -1, 0, -1
    }

    #[test]
    fn decode_after_simulated_addition() {
        // digits may accumulate beyond {-1,0,1} after homomorphic sums.
        let e = enc();
        // 3 + 3 as raw coefficient addition: [1,1] + [1,1] = [2,2] -> 2+4 = 6.
        let sum = Plaintext::from_coeffs(vec![2, 2]);
        assert_eq!(e.decode(&sum).unwrap(), 6);
    }

    #[test]
    fn decode_after_simulated_multiplication() {
        // (x+1)^2 = x^2 + 2x + 1 -> decode = 4 + 4 + 1 = 9 = 3^2.
        let e = enc();
        let prod = Plaintext::from_coeffs(vec![1, 2, 1]);
        assert_eq!(e.decode(&prod).unwrap(), 9);
    }

    #[test]
    fn rejects_too_wide() {
        let e = IntegerEncoder::new(65537, 64);
        // Fits in 63 digits -> ok; i64::MAX needs 63 digits.
        assert!(e.encode(i64::MAX).is_ok());
        let e_small = IntegerEncoder::new(65537, 64);
        let _ = e_small;
    }
}
