//! Error types for the TEE simulator, with a transient/fatal taxonomy the
//! recovery layer dispatches on.

use hesgx_chaos::FaultSite;

/// Errors produced by enclave, sealing, and attestation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// An operation was interrupted by an injected transient fault at the
    /// given site (an aborted `EENTER`, a lost ECALL result, a dropped
    /// attestation or noise-refresh request). Retrying can succeed.
    Interrupted(FaultSite),
    /// A sealed blob failed integrity verification (tampered or wrong enclave).
    SealedBlobCorrupted,
    /// A report MAC did not verify (report not produced on this platform).
    ReportMacInvalid,
    /// A quote signature did not verify.
    QuoteSignatureInvalid,
    /// The quote's platform is not registered with the attestation service.
    UnknownPlatform,
    /// The enclave measurement does not match the expected value.
    MeasurementMismatch {
        /// Expected MRENCLAVE value.
        expected: [u8; 32],
        /// Actual MRENCLAVE value from the quote.
        actual: [u8; 32],
    },
    /// A touch runs past the enclave's configured heap.
    HeapExhausted {
        /// Bytes requested.
        requested: usize,
        /// Bytes the heap holds.
        available: usize,
    },
}

impl TeeError {
    /// Whether retrying the failed operation can succeed.
    ///
    /// The match is intentionally exhaustive (no `_` arm): adding a variant
    /// without classifying it here is a compile error, so no error can ship
    /// unclassified. Only [`TeeError::Interrupted`] is transient — every
    /// integrity, identity, and capacity failure is a property of the inputs
    /// or configuration and will recur on retry.
    pub fn is_transient(&self) -> bool {
        match self {
            TeeError::Interrupted(_) => true,
            TeeError::SealedBlobCorrupted
            | TeeError::ReportMacInvalid
            | TeeError::QuoteSignatureInvalid
            | TeeError::UnknownPlatform
            | TeeError::MeasurementMismatch { .. }
            | TeeError::HeapExhausted { .. } => false,
        }
    }

    /// The fault site behind a transient interruption, if any.
    pub fn fault_site(&self) -> Option<FaultSite> {
        match self {
            TeeError::Interrupted(site) => Some(*site),
            _ => None,
        }
    }
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::Interrupted(site) => {
                write!(f, "operation interrupted by transient fault at {site}")
            }
            TeeError::SealedBlobCorrupted => write!(f, "sealed blob failed integrity check"),
            TeeError::ReportMacInvalid => write!(f, "report MAC invalid for this platform"),
            TeeError::QuoteSignatureInvalid => write!(f, "quote signature invalid"),
            TeeError::UnknownPlatform => {
                write!(f, "platform not registered with attestation service")
            }
            TeeError::MeasurementMismatch { .. } => write!(f, "enclave measurement mismatch"),
            TeeError::HeapExhausted {
                requested,
                available,
            } => write!(
                f,
                "heap exhausted: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for TeeError {}

/// Convenience alias for TEE results.
pub type Result<T> = std::result::Result<T, TeeError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative value per variant; the `match` in `is_transient`
    /// is the real exhaustiveness guarantee, this just pins the verdicts.
    fn all_variants() -> Vec<TeeError> {
        vec![
            TeeError::Interrupted(FaultSite::EcallEnter),
            TeeError::SealedBlobCorrupted,
            TeeError::ReportMacInvalid,
            TeeError::QuoteSignatureInvalid,
            TeeError::UnknownPlatform,
            TeeError::MeasurementMismatch {
                expected: [0; 32],
                actual: [1; 32],
            },
            TeeError::HeapExhausted {
                requested: 10,
                available: 5,
            },
        ]
    }

    #[test]
    fn only_interruptions_are_transient() {
        for err in all_variants() {
            let expected = matches!(err, TeeError::Interrupted(_));
            assert_eq!(err.is_transient(), expected, "misclassified: {err}");
            assert_eq!(err.fault_site().is_some(), expected);
        }
    }

    #[test]
    fn interrupted_display_names_the_site() {
        let err = TeeError::Interrupted(FaultSite::NoiseRefresh);
        assert!(err.to_string().contains("noise-refresh"));
        assert_eq!(err.fault_site(), Some(FaultSite::NoiseRefresh));
    }
}
