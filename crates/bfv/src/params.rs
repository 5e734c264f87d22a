//! Encryption parameters and parameter presets.
//!
//! Mirrors SEAL 2.1's `EncryptionParameters` + `ChooserEvaluator::
//! default_parameter_options()` workflow the paper uses (§V-A): the caller
//! picks a polynomial degree and plaintext modulus, and the coefficient
//! modulus is selected automatically for that degree.

use crate::arith::{self, is_prime_u64, MAX_LIMB_BITS};
use serde::{Deserialize, Serialize};

/// Standard deviation σ of the error distribution (SEAL's default); every
/// context samples its error at this width.
pub const DEFAULT_NOISE_STD_DEV: f64 = 3.2;

/// Truncation bound of the error distribution, in standard deviations.
pub const NOISE_TRUNCATION_SIGMAS: f64 = 6.0;

/// Default relinearization decomposition bit count (SEAL's `dbc`).
pub const DEFAULT_DECOMPOSITION_BIT_COUNT: u32 = 16;

/// Errors produced when validating encryption parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParameterError {
    /// The polynomial degree is not a supported power of two.
    InvalidDegree(usize),
    /// A coefficient-modulus limb is not an NTT prime for this degree.
    InvalidCoeffModulus(u64),
    /// Coefficient-modulus limbs must be distinct.
    DuplicateCoeffModulus(u64),
    /// The plaintext modulus is out of range or conflicts with q.
    InvalidPlainModulus(u64),
    /// The decomposition bit count is out of the supported range.
    InvalidDecompositionBitCount(u32),
    /// Total coefficient modulus too large for exact multiplication support.
    CoeffModulusTooLarge(u32),
}

impl std::fmt::Display for ParameterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParameterError::InvalidDegree(n) => {
                write!(f, "polynomial degree {n} is not a supported power of two")
            }
            ParameterError::InvalidCoeffModulus(q) => {
                write!(
                    f,
                    "coefficient modulus {q} is not an NTT prime for this degree"
                )
            }
            ParameterError::DuplicateCoeffModulus(q) => {
                write!(f, "coefficient modulus {q} appears more than once")
            }
            ParameterError::InvalidPlainModulus(t) => {
                write!(f, "plaintext modulus {t} is invalid for these parameters")
            }
            ParameterError::InvalidDecompositionBitCount(c) => {
                write!(
                    f,
                    "decomposition bit count {c} outside supported range 1..=60"
                )
            }
            ParameterError::CoeffModulusTooLarge(bits) => {
                write!(
                    f,
                    "total coefficient modulus of {bits} bits exceeds the 120-bit limit"
                )
            }
        }
    }
}

impl std::error::Error for ParameterError {}

/// Rough security classification for a parameter set.
///
/// Estimates follow the homomorphic-encryption-standard tables very loosely;
/// the paper's own parameters (n = 1024) fall in the simulation band too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecurityLevel {
    /// Parameters suitable only for functional simulation and benchmarks.
    Simulation,
    /// Roughly 128-bit classical security.
    Bits128,
}

/// FV encryption parameters: ring degree, RNS coefficient modulus, plaintext
/// modulus, error width, and relinearization decomposition.
///
/// # Examples
///
/// ```
/// use hesgx_bfv::params::EncryptionParameters;
///
/// let params = EncryptionParameters::builder()
///     .poly_degree(1024)
///     .plain_modulus(65537)
///     .build()
///     .unwrap();
/// assert_eq!(params.poly_degree(), 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncryptionParameters {
    poly_degree: usize,
    coeff_moduli: Vec<u64>,
    plain_modulus: u64,
    decomposition_bit_count: u32,
}

impl EncryptionParameters {
    /// Starts a parameter builder with SEAL-like defaults
    /// (n = 1024, automatic coefficient modulus, t = 65537); the error width
    /// is always [`DEFAULT_NOISE_STD_DEV`].
    pub fn builder() -> EncryptionParametersBuilder {
        EncryptionParametersBuilder::default()
    }

    /// The ring degree `n`.
    pub fn poly_degree(&self) -> usize {
        self.poly_degree
    }

    /// The RNS limbs of the coefficient modulus `q`.
    pub fn coeff_moduli(&self) -> &[u64] {
        &self.coeff_moduli
    }

    /// Total bit size of `q`.
    pub fn coeff_modulus_bits(&self) -> u32 {
        self.coeff_moduli
            .iter()
            .map(|&q| 64 - q.leading_zeros())
            .sum()
    }

    /// The plaintext modulus `t`.
    pub fn plain_modulus(&self) -> u64 {
        self.plain_modulus
    }

    /// Relinearization decomposition bit count (base `w = 2^dbc`).
    pub fn decomposition_bit_count(&self) -> u32 {
        self.decomposition_bit_count
    }

    /// Whether `t ≡ 1 (mod 2n)`, enabling SIMD batching.
    pub fn supports_batching(&self) -> bool {
        self.plain_modulus % (2 * self.poly_degree as u64) == 1 && is_prime_u64(self.plain_modulus)
    }

    /// Rough security classification (see [`SecurityLevel`]).
    pub fn security_level(&self) -> SecurityLevel {
        // Very coarse: 128-bit security needs q_bits <= these caps per degree
        // (HE-standard ternary-secret table).
        let cap = match self.poly_degree {
            1024 => 27,
            2048 => 54,
            4096 => 109,
            8192 => 218,
            16384 => 438,
            _ => 0,
        };
        if self.coeff_modulus_bits() <= cap {
            SecurityLevel::Bits128
        } else {
            SecurityLevel::Simulation
        }
    }

    /// Default coefficient modulus for a degree, analogous to SEAL 2.1's
    /// `ChooserEvaluator::default_parameter_options()` (paper §V-A).
    ///
    /// Returns NTT-friendly prime limbs sized so the scheme supports at least
    /// one ciphertext multiplication at that degree.
    pub fn default_coeff_moduli(poly_degree: usize) -> Vec<u64> {
        let step = 2 * poly_degree as u64;
        match poly_degree {
            256 | 512 => arith::primes_congruent_one(46, step, 2),
            1024 => arith::primes_congruent_one(52, step, 2),
            2048 => arith::primes_congruent_one(56, step, 2),
            // Larger degrees keep the slightly lower cap they were first
            // given: changing a default would orphan existing keys.
            4096 => arith::primes_congruent_one(55, step, 2),
            _ => arith::primes_congruent_one(54, step, 2),
        }
    }

    /// Replaces `q` and `t` without validation, as deserialization can.
    #[cfg(test)]
    pub(crate) fn set_unvalidated(&mut self, coeff_moduli: Vec<u64>, plain_modulus: u64) {
        self.coeff_moduli = coeff_moduli;
        self.plain_modulus = plain_modulus;
    }

    pub(crate) fn validate(&self) -> Result<(), ParameterError> {
        let n = self.poly_degree;
        if !n.is_power_of_two() || !(256..=32768).contains(&n) {
            return Err(ParameterError::InvalidDegree(n));
        }
        let step = 2 * n as u64;
        let mut seen = std::collections::HashSet::new();
        for &q in &self.coeff_moduli {
            if !is_prime_u64(q) || q % step != 1 || 64 - q.leading_zeros() > MAX_LIMB_BITS {
                return Err(ParameterError::InvalidCoeffModulus(q));
            }
            if !seen.insert(q) {
                return Err(ParameterError::DuplicateCoeffModulus(q));
            }
        }
        if self.coeff_moduli.is_empty() {
            return Err(ParameterError::InvalidCoeffModulus(0));
        }
        // Reconstruction, decryption's scale-and-round and the base
        // conversions of multiplication hold a coefficient of `[0, q)` — and
        // short sums of them — in a `u128`.
        if self.coeff_modulus_bits() > 120 {
            return Err(ParameterError::CoeffModulusTooLarge(
                self.coeff_modulus_bits(),
            ));
        }
        let t = self.plain_modulus;
        if !(2..=1 << 30).contains(&t) {
            return Err(ParameterError::InvalidPlainModulus(t));
        }
        if self.coeff_moduli.contains(&t) {
            return Err(ParameterError::InvalidPlainModulus(t));
        }
        if !(1..=60).contains(&self.decomposition_bit_count) {
            return Err(ParameterError::InvalidDecompositionBitCount(
                self.decomposition_bit_count,
            ));
        }
        Ok(())
    }
}

/// Builder for [`EncryptionParameters`].
#[derive(Debug, Clone)]
pub struct EncryptionParametersBuilder {
    poly_degree: usize,
    coeff_moduli: Option<Vec<u64>>,
    plain_modulus: u64,
    decomposition_bit_count: u32,
}

impl Default for EncryptionParametersBuilder {
    fn default() -> Self {
        EncryptionParametersBuilder {
            poly_degree: 1024,
            coeff_moduli: None,
            plain_modulus: 65537,
            decomposition_bit_count: DEFAULT_DECOMPOSITION_BIT_COUNT,
        }
    }
}

impl EncryptionParametersBuilder {
    /// Sets the ring degree `n` (power of two in `[256, 32768]`).
    pub fn poly_degree(mut self, n: usize) -> Self {
        self.poly_degree = n;
        self
    }

    /// Sets explicit coefficient-modulus limbs (NTT primes for the degree).
    pub fn coeff_moduli(mut self, moduli: Vec<u64>) -> Self {
        self.coeff_moduli = Some(moduli);
        self
    }

    /// Sets the plaintext modulus `t`.
    pub fn plain_modulus(mut self, t: u64) -> Self {
        self.plain_modulus = t;
        self
    }

    /// Sets the relinearization decomposition bit count.
    pub fn decomposition_bit_count(mut self, dbc: u32) -> Self {
        self.decomposition_bit_count = dbc;
        self
    }

    /// Validates and builds the parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ParameterError`] describing the first invalid field.
    pub fn build(self) -> Result<EncryptionParameters, ParameterError> {
        let coeff_moduli = self
            .coeff_moduli
            .unwrap_or_else(|| EncryptionParameters::default_coeff_moduli(self.poly_degree));
        let params = EncryptionParameters {
            poly_degree: self.poly_degree,
            coeff_moduli,
            plain_modulus: self.plain_modulus,
            decomposition_bit_count: self.decomposition_bit_count,
        };
        params.validate()?;
        Ok(params)
    }
}

/// Named presets used across the workspace.
pub mod presets {
    use super::*;

    /// The paper's setup: n = 1024, automatic q (§V-A), batching-friendly t.
    ///
    /// Used by the hybrid framework — its pipeline performs only
    /// plaintext multiplications between enclave refreshes, so a moderate q
    /// gives ample noise budget.
    pub fn paper_n1024() -> EncryptionParameters {
        EncryptionParameters::builder()
            .poly_degree(1024)
            .plain_modulus(65537)
            .build()
            .expect("preset is valid")
    }

    /// Parameters for the pure-HE (CryptoNets-style) baseline: same degree,
    /// same q, but sized to survive one ciphertext–ciphertext multiplication
    /// (the square activation) plus two linear layers.
    pub fn cryptonets_n1024(plain_modulus: u64) -> EncryptionParameters {
        EncryptionParameters::builder()
            .poly_degree(1024)
            .plain_modulus(plain_modulus)
            .build()
            .expect("preset is valid")
    }

    /// A small, fast preset for unit tests.
    pub fn test_n256() -> EncryptionParameters {
        EncryptionParameters::builder()
            .poly_degree(256)
            .plain_modulus(crate::arith::smallest_prime_congruent_one_above(
                1 << 12,
                512,
            ))
            .build()
            .expect("preset is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_valid() {
        let p = EncryptionParameters::builder().build().unwrap();
        assert_eq!(p.poly_degree(), 1024);
        assert!(p.supports_batching());
        assert_eq!(p.coeff_moduli().len(), 2);
    }

    #[test]
    fn rejects_bad_degree() {
        let err = EncryptionParameters::builder()
            .poly_degree(1000)
            .build()
            .unwrap_err();
        assert_eq!(err, ParameterError::InvalidDegree(1000));
    }

    #[test]
    fn rejects_non_ntt_modulus() {
        let err = EncryptionParameters::builder()
            .coeff_moduli(vec![1_000_003])
            .build()
            .unwrap_err();
        assert!(matches!(err, ParameterError::InvalidCoeffModulus(_)));
    }

    #[test]
    fn rejects_duplicate_modulus() {
        let q = crate::arith::largest_prime_congruent_one(50, 2048);
        let err = EncryptionParameters::builder()
            .coeff_moduli(vec![q, q])
            .build()
            .unwrap_err();
        assert!(matches!(err, ParameterError::DuplicateCoeffModulus(_)));
    }

    #[test]
    fn rejects_tiny_plain_modulus() {
        let err = EncryptionParameters::builder()
            .plain_modulus(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, ParameterError::InvalidPlainModulus(1)));
    }

    #[test]
    fn rejects_oversized_q() {
        let step = 2048u64;
        let moduli = crate::arith::primes_congruent_one(62, step, 2);
        let err = EncryptionParameters::builder()
            .coeff_moduli(moduli)
            .build()
            .unwrap_err();
        assert!(matches!(err, ParameterError::CoeffModulusTooLarge(_)));
    }

    #[test]
    fn batching_detection() {
        let p = EncryptionParameters::builder()
            .plain_modulus(65537) // 65537 = 32 * 2048 + 1, prime
            .build()
            .unwrap();
        assert!(p.supports_batching());
        let p = EncryptionParameters::builder()
            .plain_modulus(65539)
            .build()
            .unwrap();
        assert!(!p.supports_batching());
    }

    #[test]
    fn security_classification() {
        assert_eq!(
            presets::paper_n1024().security_level(),
            SecurityLevel::Simulation
        );
    }

    #[test]
    fn presets_build() {
        presets::paper_n1024();
        presets::cryptonets_n1024(40961);
        presets::test_n256();
    }

    #[test]
    fn clone_and_eq() {
        let p = presets::paper_n1024();
        let cloned = p.clone();
        assert_eq!(p, cloned);
    }
}
