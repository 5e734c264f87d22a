//! # hesgx-henn
//!
//! Homomorphic neural-network layers over `hesgx-bfv`, and the pure-HE
//! baseline the paper compares against (`Encrypted` in Fig. 8 — the
//! CryptoNets scheme of reference \[16\]).
//!
//! Data layout: an encrypted feature map ([`image::EncryptedMap`]) holds
//! **one ciphertext per pixel position** with the image batch riding in the
//! SIMD slots, so all per-image costs amortize over `batchSize` exactly as in
//! the paper's experiments (§V-B) — or, as [`image::Layout::Coeff`], one
//! ciphertext per image with its pixels as polynomial coefficients, which the
//! hybrid pipeline serves small batches in. Values larger than one plaintext
//! modulus are handled by plaintext-CRT ([`crt::CrtPlainSystem`]), the
//! CryptoNets technique.
//!
//! Layers ([`ops`]): homomorphic convolution and fully connected layers
//! (ciphertext × plaintext-scalar weights over a per-pixel map; over a packed
//! map, ciphertext × plaintext polynomials in evaluation form), scaled
//! mean-pooling (window sums — HE cannot divide, paper §III-A), and the
//! square activation (ciphertext × ciphertext multiply + relinearization). Every operation is counted in the
//! paper's `C×P` / `C+C` terminology for the Fig. 4 analysis.
//!
//! Correctness contract: encrypted inference must reproduce
//! [`hesgx_nn::quantize::QuantizedCnn::forward_ints`] bit for bit — asserted
//! by this crate's tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crt;
pub mod cryptonets;
pub mod image;
pub mod layers;
pub mod ops;
pub mod par;
pub mod weights;

pub use crt::{CrtCiphertext, CrtKeys, CrtPlainSystem, CrtSeededCiphertext};
pub use cryptonets::CryptoNets;
pub use image::{EncryptedMap, Layout, SeededMap};
pub use ops::OpCounter;
pub use par::ParExec;
