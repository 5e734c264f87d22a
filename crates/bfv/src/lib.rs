//! # hesgx-bfv
//!
//! A from-scratch Rust implementation of the Fan–Vercauteren (FV/BFV)
//! somewhat-homomorphic encryption scheme — the scheme the ICDCS 2021 paper
//! *"Privacy-Preserving Neural Network Inference Framework via Homomorphic
//! Encryption and SGX"* uses through Microsoft SEAL 2.1.
//!
//! The crate implements exactly the seven algorithms the paper lists in
//! §II-B, plus the supporting machinery:
//!
//! | Paper algorithm | API |
//! |---|---|
//! | `SecretKeyGen(1^λ)` | [`keys::KeyGenerator::secret_key`] |
//! | `PublicKeyGen(sk)` | [`keys::KeyGenerator::public_key`] |
//! | `Encrypt(pk, m)` | [`encryptor::Encryptor::encrypt`] |
//! | `Decrypt(sk, c)` | [`decryptor::Decryptor::decrypt`] |
//! | `Add(ct0, ct1)` | [`evaluator::Evaluator::add`] |
//! | `Multiply(ct0, ct1)` | [`evaluator::Evaluator::multiply`] |
//! | `EvaluationKeyGen(sk, w)` | [`keys::KeyGenerator::evaluation_keys`] |
//!
//! Design highlights:
//!
//! * **RNS coefficient modulus** — `q` is a product of NTT-friendly primes;
//!   all linear operations run per-limb with no big-integer arithmetic.
//! * **Exact multiplication** — the tensor product is computed over the
//!   integers, as residues modulo `q`'s limbs and three extension primes, and
//!   rescaled by `round(t·x/q)` in 64/128-bit words, matching the textbook
//!   FV definition bit for bit.
//! * **One encoder** — SIMD batching (`t ≡ 1 mod 2n`), the throughput
//!   extension of the paper's §VIII; a convolution weight is a slot-wise
//!   scalar operand ([`evaluator::PlainScalar`]), not a polynomial of its own.
//! * **Noise budget tracking** — [`decryptor::Decryptor::invariant_noise_budget`]
//!   feeds the hybrid framework's noise telemetry and its tests.
//!
//! # Examples
//!
//! ```
//! use hesgx_bfv::prelude::*;
//! use hesgx_crypto::rng::ChaChaRng;
//!
//! # fn main() -> Result<(), hesgx_bfv::error::BfvError> {
//! let ctx = BfvContext::new(presets::test_n256())?;
//! let mut rng = ChaChaRng::from_seed(2021);
//! let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
//! let encryptor = Encryptor::new(ctx.clone(), keygen.public_key());
//! let decryptor = Decryptor::new(ctx.clone(), keygen.secret_key());
//! let evaluator = Evaluator::new(ctx.clone());
//!
//! let a = encryptor.encrypt(&Plaintext::constant(6), &mut rng)?;
//! let b = encryptor.encrypt(&Plaintext::constant(7), &mut rng)?;
//! let product = evaluator.multiply(&a, &b)?;
//! assert_eq!(decryptor.decrypt(&product)?.coeffs()[0], 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arith;
pub mod ciphertext;
pub mod context;
pub mod decryptor;
pub mod encoding;
pub mod encryptor;
pub mod error;
pub mod evaluator;
pub mod keys;
pub mod ntt;
pub mod params;
pub mod plaintext;
pub mod poly;
pub mod sampler;
pub mod serialization;
mod tensor;

/// Convenient glob-import of the main types.
pub mod prelude {
    pub use crate::ciphertext::{Ciphertext, SeededCiphertext};
    pub use crate::context::BfvContext;
    pub use crate::decryptor::Decryptor;
    pub use crate::encoding::BatchEncoder;
    pub use crate::encryptor::{EncryptionKey, Encryptor};
    pub use crate::error::BfvError;
    pub use crate::evaluator::{Evaluator, PlainScalar, PreparedBias};
    pub use crate::keys::{EvaluationKeys, GaloisKeys, KeyGenerator, PublicKey, SecretKey};
    pub use crate::params::{presets, EncryptionParameters, SecurityLevel};
    pub use crate::plaintext::{NttPlaintext, Plaintext};
}
