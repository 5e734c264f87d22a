//! Error types for scheme-level operations.

use crate::params::ParameterError;

/// Errors returned by encryption, decryption, and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BfvError {
    /// A key or ciphertext belongs to a different parameter set.
    ContextMismatch,
    /// The plaintext has more coefficients than the ring degree.
    PlaintextTooLong {
        /// Stored coefficient count.
        len: usize,
        /// Ring degree.
        degree: usize,
    },
    /// A plaintext coefficient is not reduced modulo `t`.
    PlaintextOutOfRange(u64),
    /// The ciphertext has an unexpected number of polynomials.
    InvalidCiphertextSize(usize),
    /// Relinearization was requested on a size-2 ciphertext.
    NothingToRelinearize,
    /// The evaluation keys do not match the context decomposition.
    EvaluationKeyMismatch,
    /// No Galois key was generated for this Galois element.
    MissingGaloisKey(usize),
    /// Batching requested but `t ≢ 1 (mod 2n)` or `t` is not prime.
    BatchingUnsupported,
    /// A scalar operand does not fit the plaintext space (`|v| ≥ t`).
    EncodeOutOfRange(i64),
    /// Too many values for the available slots.
    TooManyValues {
        /// Provided value count.
        len: usize,
        /// Available slot count.
        slots: usize,
    },
    /// Invalid parameters (propagated from construction).
    Params(ParameterError),
    /// A layer or model shape handed to a homomorphic engine is
    /// inconsistent (kernel larger than the map, wrong weight count, …).
    InvalidShape(String),
}

impl std::fmt::Display for BfvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BfvError::ContextMismatch => write!(f, "artifact bound to a different context"),
            BfvError::PlaintextTooLong { len, degree } => {
                write!(f, "plaintext length {len} exceeds ring degree {degree}")
            }
            BfvError::PlaintextOutOfRange(c) => {
                write!(f, "plaintext coefficient {c} not reduced modulo t")
            }
            BfvError::InvalidCiphertextSize(s) => {
                write!(f, "ciphertext has invalid size {s}")
            }
            BfvError::NothingToRelinearize => {
                write!(f, "ciphertext already has size 2")
            }
            BfvError::EvaluationKeyMismatch => {
                write!(f, "evaluation keys do not match context decomposition")
            }
            BfvError::MissingGaloisKey(g) => write!(f, "no Galois key for element {g}"),
            BfvError::BatchingUnsupported => {
                write!(f, "plaintext modulus does not support batching")
            }
            BfvError::EncodeOutOfRange(v) => {
                write!(f, "value {v} outside encodable range")
            }
            BfvError::TooManyValues { len, slots } => {
                write!(f, "{len} values exceed {slots} available slots")
            }
            BfvError::Params(e) => write!(f, "invalid parameters: {e}"),
            BfvError::InvalidShape(msg) => write!(f, "invalid shape: {msg}"),
        }
    }
}

impl std::error::Error for BfvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BfvError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParameterError> for BfvError {
    fn from(e: ParameterError) -> Self {
        BfvError::Params(e)
    }
}

/// Convenience alias for scheme-level results.
pub type Result<T> = std::result::Result<T, BfvError>;
