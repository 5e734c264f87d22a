//! # hesgx-tee
//!
//! A software simulator of Intel SGX, built so the ICDCS 2021 hybrid HE+SGX
//! inference framework can be reproduced without SGX hardware (the paper used
//! driver 2.5.0 / SDK 2.6.100 on a Xeon E3-1225 v6).
//!
//! What is simulated, and how:
//!
//! * **Isolation & lifecycle** — [`enclave::EnclaveBuilder`] measures loaded
//!   code into an MRENCLAVE-style hash; [`enclave::Enclave::ecall`] runs
//!   closures "inside" and charges each boundary crossing. Functional security
//!   properties (sealing bound to measurement, attestation chains) are
//!   executed for real in software.
//! * **Performance** — a calibrated [`cost::CostModel`] charges the
//!   in-enclave slowdown, EENTER/EEXIT transitions, marshalling, and EPC
//!   paging through a [`cost::VirtualClock`]. Defaults reproduce the ratios of the
//!   paper's Tables I/IV/V; [`cost::CostModel::fake_sgx`] is the paper's
//!   `FakeSGX` control (same code, no enclave).
//! * **Limited memory** — [`epc::Epc`] models the ~93 MiB protected page
//!   cache with LRU eviction behind one enclave heap whose pages stay
//!   resident until evicted; working sets larger than the EPC thrash, which
//!   is both a cost term and a side-channel signal (paper §III-B).
//! * **Remote attestation** — [`attestation`] implements the DCAP-style
//!   report → quote → service chain, including the *user data* field the
//!   paper uses to distribute FV keys without a trusted third party (§IV-A).
//! * **Side channels** — the host-observable events, boundary crossings and
//!   EPC page faults, are booked once, on the `hesgx_obs::Recorder` an
//!   enclave is built with (`ecall.*` spans, `ecall.calls`,
//!   `epc.page_faults`), so deployment strategies can be compared by
//!   exposure (§IV-C) from the same ledger that prices them.
//!
//! # Examples
//!
//! ```
//! use hesgx_tee::prelude::*;
//!
//! let platform = Platform::new(7);
//! let enclave = EnclaveBuilder::new("inference")
//!     .add_code(b"sigmoid-v1")
//!     .build(platform.clone());
//!
//! // Run work "inside"; real result, modeled cost.
//! let (sum, cost) = enclave.ecall("sum", 8, 8, |_| 40 + 2);
//! assert_eq!(sum, 42);
//! assert!(cost.total_ns() > 0);
//!
//! // Attested channel carrying enclave-generated data.
//! let report = enclave.create_report(b"generated-key".to_vec());
//! let quote = platform.quoting_enclave().quote(&report).unwrap();
//! let mut service = AttestationService::new();
//! service.register_platform(platform.quoting_enclave());
//! let verified = service.verify(&quote).unwrap();
//! assert_eq!(verified.user_data, b"generated-key");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attestation;
pub mod cost;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod sealing;
pub mod wall;

/// Convenient glob-import of the main types.
pub mod prelude {
    pub use crate::attestation::{
        AttestationService, Quote, QuotingEnclave, Report, VerifiedQuote,
    };
    pub use crate::cost::{CostBreakdown, CostModel, VirtualClock};
    pub use crate::enclave::{Enclave, EnclaveBuilder, EnclaveCtx, Platform};
    pub use crate::epc::{Epc, PAGE_SIZE};
    pub use crate::error::TeeError;
    pub use crate::sealing::SealedBlob;
    pub use crate::wall::WallTimer;
    pub use hesgx_chaos::{FaultHook, FaultKind, FaultPlan, FaultReport, FaultSite};
}
