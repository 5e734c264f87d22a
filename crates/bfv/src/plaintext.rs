//! Plaintext polynomials over `R_t`.

use crate::context::BfvContext;
use crate::error::{BfvError, Result};
use crate::poly::RnsPoly;
use serde::{Deserialize, Serialize};

/// A plaintext: a polynomial with coefficients reduced modulo the plaintext
/// modulus `t`. Produced by the encoders in [`crate::encoding`] and consumed
/// by [`crate::encryptor::Encryptor`] / [`crate::evaluator::Evaluator`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plaintext {
    coeffs: Vec<u64>,
}

impl Plaintext {
    /// Wraps raw coefficients (must already be reduced mod `t`).
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Plaintext { coeffs }
    }

    /// A plaintext holding the single constant `value` (already mod `t`).
    pub fn constant(value: u64) -> Self {
        Plaintext {
            coeffs: vec![value],
        }
    }

    /// The zero plaintext.
    pub fn zero() -> Self {
        Plaintext { coeffs: vec![0] }
    }

    /// Coefficients (low to high degree; may be shorter than `n`).
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Number of stored coefficients.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether every stored coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// `len() == 0` (an empty plaintext is also zero).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Largest nonzero degree plus one (0 for the zero plaintext).
    pub fn significant_len(&self) -> usize {
        self.coeffs
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |p| p + 1)
    }

    /// Fails when the plaintext is longer than `ctx`'s ring degree or a
    /// coefficient is not reduced modulo `t`.
    pub(crate) fn check(&self, ctx: &BfvContext) -> Result<()> {
        let degree = ctx.poly_degree();
        if self.len() > degree {
            let len = self.len();
            return Err(BfvError::PlaintextTooLong { len, degree });
        }
        let t = ctx.params().plain_modulus();
        match self.coeffs.iter().find(|&&c| c >= t) {
            Some(&c) => Err(BfvError::PlaintextOutOfRange(c)),
            None => Ok(()),
        }
    }
}

impl Default for Plaintext {
    fn default() -> Self {
        Plaintext::zero()
    }
}

/// A plaintext cached in NTT (evaluation) form against one context — the
/// centered lift and forward transform that
/// [`crate::evaluator::Evaluator::mul_plain`] redoes per call, computed
/// once at weight provisioning and reused by
/// [`crate::evaluator::Evaluator::mul_plain_ntt`] for every request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NttPlaintext {
    pub(crate) poly: RnsPoly,
    /// Binds the cached transform to the parameter set that produced it.
    pub(crate) context_id: [u8; 32],
}

impl NttPlaintext {
    /// The context identifier this cached transform is bound to.
    pub fn context_id(&self) -> &[u8; 32] {
        &self.context_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_and_zero() {
        assert!(Plaintext::zero().is_zero());
        assert!(!Plaintext::constant(5).is_zero());
        assert_eq!(Plaintext::constant(5).coeffs(), &[5]);
    }

    #[test]
    fn significant_len_ignores_trailing_zeros() {
        let p = Plaintext::from_coeffs(vec![1, 0, 3, 0, 0]);
        assert_eq!(p.significant_len(), 3);
        assert_eq!(Plaintext::zero().significant_len(), 0);
    }
}
