//! # hesgx-core
//!
//! The paper's contribution: a **hybrid privacy-preserving CNN inference
//! framework combining FV homomorphic encryption and SGX** (Xiao, Zhang, Pei,
//! Shi — ICDCS 2021), reproduced in Rust over the workspace's from-scratch
//! substrates:
//!
//! * `hesgx-bfv` — the FV scheme (SEAL 2.1 stand-in),
//! * `hesgx-tee` — the SGX simulator (hardware stand-in),
//! * `hesgx-nn` / `hesgx-henn` — the plaintext and homomorphic CNN layers.
//!
//! The framework (paper Fig. 2):
//!
//! 1. **Key distribution** ([`keydist`]) — the enclave generates the FV keys
//!    and ships them to users through the remote-attestation user-data
//!    channel, eliminating the trusted third party of the classic HE
//!    deployment (§IV-A).
//! 2. **Linear layers outside** ([`hesgx_henn::ops`]) — convolution and fully
//!    connected layers run homomorphically in the untrusted host, so model
//!    weights never enter the enclave (§IV-C).
//! 3. **Non-linear layers inside** ([`sgx_ops::InferenceEnclave::apply`]) —
//!    the enclave decrypts, applies the *exact* sigmoid and pooling (no
//!    polynomial approximation) in one boundary crossing, and re-encrypts
//!    only the pooled map (§IV-D, §VI-E); [`planner`]
//!    compiles that placement rule into the stage list
//!    [`pipeline::HybridInference::run`] walks.
//! 4. **Noise refresh instead of relinearization** — decrypt–re-encrypt
//!    inside the enclave removes noise and ciphertext growth without
//!    evaluation keys (§IV-E). Every crossing of a compiled plan does it on
//!    the way; [`EnclaveOp::Refresh`] (the same operator with the identity on
//!    the slots) is the stand-alone `ecall_DecreaseNoise` of hand-built plans.
//!
//! Correctness contract: the encrypted pipeline reproduces
//! [`hesgx_nn::quantize::QuantizedCnn::forward_ints`] bit for bit, which is
//! how the paper's "accuracy rates are consistent with the plaintext
//! predictions" claim (§VII-B) is verified here.
//!
//! # Examples
//!
//! The [`session`] facade is the front door — quantize a model, build a
//! [`Session`], and every inference travels encrypted through the full
//! pipeline:
//!
//! ```no_run
//! use hesgx_core::prelude::*;
//! use hesgx_crypto::rng::ChaChaRng;
//! use hesgx_nn::layers::PoolKind;
//! use hesgx_nn::model_zoo::paper_cnn;
//!
//! # fn main() -> hesgx_core::Result<()> {
//! let mut rng = ChaChaRng::from_seed(1);
//! let float_net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
//! let model = QuantizedCnn::from_network(&float_net, QuantPipeline::Hybrid, 16, 32, 16);
//! let session = SessionBuilder::new()
//!     .params(ParamsPreset::Paper)
//!     .threads(4)
//!     .seed(42)
//!     .build(Platform::new(0), model)?;
//! let response = session.serve(InferRequest::single(vec![0i64; 28 * 28]))?;
//! println!(
//!     "{} logits in {:?}",
//!     response.logits[0].len(),
//!     response.metrics.total()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The lower-level [`pipeline::HybridInference`] API remains available when
//! the user and the edge service are separate processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod ingress;
pub mod keydist;
pub mod pipeline;
pub mod planner;
pub mod recovery;
pub mod request;
pub mod session;
pub mod sgx_ops;

pub use error::{Error, FaultClass, Result};
pub use pipeline::{HybridInference, HybridMetrics, ProvisionConfig};
pub use planner::{EcallBatching, EnclaveOp, InferencePlan, Placement, Stage};
pub use request::{InferRequest, InferResponse, Ingress, Resilience, TenantId, VirtualNs};
pub use session::{ParamsPreset, Served, Session, SessionBuilder};
pub use sgx_ops::InferenceEnclave;

/// The convenient single import: `use hesgx_core::prelude::*;`.
pub mod prelude {
    pub use crate::error::{Error, FaultClass, Result};
    pub use crate::pipeline::{HybridInference, HybridMetrics, ProvisionConfig};
    pub use crate::planner::{EcallBatching, EnclaveOp, InferencePlan, Placement, Stage};
    pub use crate::request::{
        InferRequest, InferResponse, Ingress, Resilience, TenantId, VirtualNs,
    };
    pub use crate::session::{ParamsPreset, Served, Session, SessionBuilder};
    pub use hesgx_chaos::{FaultPlan, FaultReport, FaultSite};
    pub use hesgx_henn::par::ParExec;
    pub use hesgx_nn::layers::ActivationKind;
    pub use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
    pub use hesgx_tee::cost::CostModel;
    pub use hesgx_tee::enclave::Platform;
}
