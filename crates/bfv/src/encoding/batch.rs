//! SIMD batch encoder: `n` plaintext slots via the splitting of `x^n + 1`
//! over `Z_t` when `t ≡ 1 (mod 2n)` is prime.
//!
//! Slot-wise addition and multiplication correspond exactly to polynomial
//! addition and multiplication in `R_t`, so one ciphertext carries `n`
//! independent values — the Chinese-Remainder-Theorem batching the paper's
//! §VIII describes. The image pipelines use the slots for the image batch
//! (`batchSize = 10` in the paper's experiments).

use crate::arith::is_prime_u64;
use crate::error::{BfvError, Result};
use crate::ntt::{bit_reverse, NttTable};
use crate::params::EncryptionParameters;
use crate::plaintext::Plaintext;

/// Encoder mapping vectors of up to `n` values in `Z_t` to plaintext
/// polynomials whose NTT evaluations are those values.
///
/// # Examples
///
/// ```
/// use hesgx_bfv::encoding::BatchEncoder;
/// use hesgx_bfv::params::presets;
///
/// let params = presets::paper_n1024();
/// let encoder = BatchEncoder::new(&params).unwrap();
/// let pt = encoder.encode(&[1, 2, 3]).unwrap();
/// let back = encoder.decode(&pt);
/// assert_eq!(&back[..3], &[1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct BatchEncoder {
    table: NttTable,
    slots: usize,
    t: u64,
}

impl BatchEncoder {
    /// Creates a batch encoder.
    ///
    /// # Errors
    ///
    /// Fails with [`BfvError::BatchingUnsupported`] when `t` is not a prime
    /// congruent to 1 modulo `2n`.
    pub fn new(params: &EncryptionParameters) -> Result<Self> {
        let n = params.poly_degree();
        let t = params.plain_modulus();
        if !is_prime_u64(t) || t % (2 * n as u64) != 1 {
            return Err(BfvError::BatchingUnsupported);
        }
        Ok(BatchEncoder {
            table: NttTable::new(n, t),
            slots: n,
            t,
        })
    }

    /// Number of SIMD slots (= ring degree).
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// The plaintext modulus.
    pub fn plain_modulus(&self) -> u64 {
        self.t
    }

    /// Encodes up to `n` slot values (unsigned, already reduced mod `t`);
    /// missing slots are zero.
    ///
    /// # Errors
    ///
    /// Fails when more than `n` values are provided or a value is ≥ `t`.
    pub fn encode(&self, values: &[u64]) -> Result<Plaintext> {
        if values.len() > self.slots {
            return Err(BfvError::TooManyValues {
                len: values.len(),
                slots: self.slots,
            });
        }
        if let Some(&v) = values.iter().find(|&&v| v >= self.t) {
            return Err(BfvError::PlaintextOutOfRange(v));
        }
        let mut evals = vec![0u64; self.slots];
        evals[..values.len()].copy_from_slice(values);
        self.table.inverse(&mut evals);
        Ok(Plaintext::from_coeffs(evals))
    }

    /// Decodes all `n` slot values (unsigned residues mod `t`).
    pub fn decode(&self, plain: &Plaintext) -> Vec<u64> {
        let mut coeffs = vec![0u64; self.slots];
        let len = plain.coeffs().len().min(self.slots);
        coeffs[..len].copy_from_slice(&plain.coeffs()[..len]);
        // A decrypted plaintext is already reduced: divide only when not.
        for c in coeffs.iter_mut().filter(|c| **c >= self.t) {
            *c %= self.t;
        }
        self.table.forward(&mut coeffs);
        coeffs
    }
}

/// SEAL's batch-matrix index map: entry `row·n/2 + col` is the encoder slot
/// of `(row, col)` in the `2 × n/2` matrix whose rows `x → x^{3^k}` rotates
/// left by `k` — row 0 at `ψ^{3^col}`, row 1 at `ψ^{−3^col}`; the encoder
/// keeps `ψ^{2j+1}` in slot `bitrev(j)`, an order this map leaves alone.
pub fn matrix_index_map(n: usize) -> Vec<usize> {
    let (row, two_n, log_n) = (n / 2, 2 * n, n.trailing_zeros());
    let mut map = vec![0; n];
    let mut pos = 1;
    for col in 0..row {
        map[col] = bit_reverse((pos - 1) / 2, log_n);
        map[row + col] = bit_reverse((two_n - pos - 1) / 2, log_n);
        pos = pos * 3 % two_n;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::presets;

    fn encoder() -> BatchEncoder {
        BatchEncoder::new(&presets::paper_n1024()).unwrap()
    }

    #[test]
    fn roundtrip_dense() {
        let e = encoder();
        let values: Vec<u64> = (0..e.slot_count() as u64)
            .map(|i| i % e.plain_modulus())
            .collect();
        let back = e.decode(&e.encode(&values).unwrap());
        assert_eq!(back, values);
    }

    #[test]
    fn roundtrip_signed() {
        // Signed slot values travel as their residues mod t, the way
        // `CrtPlainSystem::encode` reduces them; a centered lift of the
        // decoded residues gives them back.
        let e = encoder();
        let t = e.plain_modulus() as i64;
        let values = [-5i64, 0, 5, -1000, 1000, -(t - 1) / 2, (t - 1) / 2];
        let residues: Vec<u64> = values.iter().map(|v| v.rem_euclid(t) as u64).collect();
        let back = e.decode(&e.encode(&residues).unwrap());
        let lift = |r: u64| {
            if r as i64 > t / 2 {
                r as i64 - t
            } else {
                r as i64
            }
        };
        let back: Vec<i64> = back.into_iter().map(lift).collect();
        assert_eq!(&back[..values.len()], &values[..]);
        assert!(back[values.len()..].iter().all(|&v| v == 0));
    }

    /// The index map is a bijection onto the slots.
    #[test]
    fn matrix_index_map_is_a_permutation() {
        for n in [256, 1024] {
            let mut seen = matrix_index_map(n);
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn rejects_unsupported_modulus() {
        let params = EncryptionParameters::builder()
            .poly_degree(1024)
            .plain_modulus(65539) // not ≡ 1 mod 2048
            .build()
            .unwrap();
        assert!(matches!(
            BatchEncoder::new(&params),
            Err(BfvError::BatchingUnsupported)
        ));
    }

    #[test]
    fn rejects_too_many_values() {
        let e = encoder();
        let values = vec![0u64; e.slot_count() + 1];
        assert!(matches!(
            e.encode(&values),
            Err(BfvError::TooManyValues { .. })
        ));
    }

    #[test]
    fn slotwise_polynomial_semantics() {
        // Multiplying the underlying polynomials (mod x^n+1, mod t) multiplies
        // the slots element-wise. Verify with the plaintext NTT directly.
        let e = encoder();
        let a = e.encode(&[3, 5, 7]).unwrap();
        let b = e.encode(&[10, 20, 30]).unwrap();
        // Polynomial product via the same table.
        let t = e.plain_modulus();
        let n = e.slot_count();
        let mut fa = vec![0u64; n];
        fa[..a.coeffs().len()].copy_from_slice(a.coeffs());
        let mut fb = vec![0u64; n];
        fb[..b.coeffs().len()].copy_from_slice(b.coeffs());
        let table = NttTable::new(n, t);
        let prod = table.negacyclic_multiply(&fa, &fb);
        let slots = e.decode(&Plaintext::from_coeffs(prod));
        assert_eq!(&slots[..3], &[30, 100, 210]);
        assert!(slots[3..].iter().all(|&v| v == 0));
    }
}
