//! FV ciphertexts.

use crate::poly::{PolyForm, RnsPoly};
use serde::{Deserialize, Serialize};

/// An FV ciphertext: a vector of polynomials in `R_q`.
///
/// Freshly encrypted ciphertexts have size 2; each homomorphic multiplication
/// grows the size by one until [`crate::evaluator::Evaluator::relinearize`]
/// (or an enclave noise refresh, in the hybrid framework) brings it back down.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext {
    pub(crate) polys: Vec<RnsPoly>,
    /// Binds the ciphertext to the parameter set that produced it.
    pub(crate) context_id: [u8; 32],
}

impl Ciphertext {
    /// Number of component polynomials (2 fresh, 3 after one multiply, …).
    pub fn size(&self) -> usize {
        self.polys.len()
    }

    /// The context identifier this ciphertext is bound to.
    pub fn context_id(&self) -> &[u8; 32] {
        &self.context_id
    }

    /// The form every component is in, or `None` when they disagree — which
    /// no encryption produces: a fresh ciphertext is in coefficient form
    /// under a public key and in evaluation form under the secret key.
    pub fn form(&self) -> Option<PolyForm> {
        let first = self.polys.first()?.form();
        self.polys
            .iter()
            .all(|p| p.form() == first)
            .then_some(first)
    }

    /// Approximate serialized size in bytes (for the paging / transfer model
    /// in the TEE simulator).
    pub fn byte_len(&self) -> usize {
        self.polys
            .iter()
            .map(|p| p.limbs.iter().map(|l| l.len() * 8).sum::<usize>())
            .sum()
    }
}
