//! FV ciphertexts, and the seeded form a fresh secret-key one travels in.

use crate::context::BfvContext;
use crate::error::{BfvError, Result};
use crate::poly::{PolyForm, RnsPoly};
use crate::sampler;
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

/// A fresh secret-key ciphertext as it travels: `c0` and the 32-byte seed
/// its uniform `c1 = a` expands from
/// ([`crate::encryptor::Encryptor::encrypt_seeded`]) — half the bytes of
/// the [`Ciphertext`] it stands for, whose `a` the receiver regenerates with
/// [`SeededCiphertext::expand`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededCiphertext {
    /// `[−a·s + e + Δ·m]_q`, in evaluation form.
    pub(crate) c0: RnsPoly,
    /// The key of the ChaCha20 stream `a` is drawn from
    /// ([`sampler::seeded_uniform_poly`]).
    pub(crate) seed: [u8; 32],
    /// Binds the ciphertext to the parameter set that produced it.
    pub(crate) context_id: [u8; 32],
}

impl SeededCiphertext {
    /// The seed `a` expands from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The context identifier this ciphertext is bound to.
    pub fn context_id(&self) -> &[u8; 32] {
        &self.context_id
    }

    /// Bytes on the wire, as [`Ciphertext::byte_len`] counts them: `c0`'s
    /// residues and the seed.
    pub fn byte_len(&self) -> usize {
        self.c0.limbs.iter().map(|l| l.len() * 8).sum::<usize>() + self.seed.len()
    }

    /// The ciphertext `(c0, a)` the sender formed, `a` regenerated from the
    /// seed — the only way back to a [`Ciphertext`]. (A seeded ciphertext
    /// comes from [`crate::encryptor::Encryptor::encrypt_seeded`] or the
    /// validating decoder, so its `c0` has the shape of its context.)
    ///
    /// # Errors
    ///
    /// [`BfvError::ContextMismatch`] for a ciphertext of another context.
    pub fn expand(&self, ctx: &BfvContext) -> Result<Ciphertext> {
        if &self.context_id != ctx.id() {
            return Err(BfvError::ContextMismatch);
        }
        Ok(Ciphertext {
            polys: vec![
                self.c0.clone(),
                sampler::seeded_uniform_poly(ctx, &self.seed),
            ],
            context_id: self.context_id,
        })
    }
}
