//! The plaintext encoder.
//!
//! [`batch::BatchEncoder`] maps `n` SIMD slots via the CRT/NTT structure of
//! `Z_t` (`t ≡ 1 mod 2n`, prime). This is the batching the paper's §VIII
//! discusses ("you can get 1024 times the throughput"); the image pipelines
//! put the batch dimension in the slots. Model weights are prepared once per
//! model in `hesgx_henn::weights`: a convolution weight as a slot-wise scalar
//! operand ([`crate::evaluator::PlainScalar`]), the packed FC layer's weights
//! as batch-encoded cells. [`batch::matrix_index_map`] views the slots as the
//! `2 × n/2` matrix whose rows the Galois automorphisms rotate.

pub mod batch;

pub use batch::{matrix_index_map, BatchEncoder};
