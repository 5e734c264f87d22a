//! Remote attestation: reports, quotes, and the attestation service.
//!
//! Mirrors the DCAP flow the paper relies on (§IV-A, \[20\]):
//!
//! 1. The application enclave produces a **report** (`EREPORT`): its
//!    measurement plus a caller-chosen *user data* field, MAC'd with a
//!    platform key only enclaves on the same CPU can derive.
//! 2. The platform's **quoting enclave** verifies the MAC locally and signs a
//!    **quote** with its attestation key (ECDSA in DCAP; Schnorr here).
//! 3. A remote **attestation service** verifies the quote signature against
//!    the registered platform and hands the caller the verified measurement
//!    and user data.
//!
//! The user-data field is what the paper's key-distribution trick rides on:
//! the enclave generates the FV key pair and ships it to the user inside the
//! attested quote, eliminating the trusted third party of Fig. 1.

use crate::error::{Result, TeeError};
use hesgx_chaos::{FaultHook, FaultKind, FaultSite};
use hesgx_crypto::hmac::{hmac_sha256, verify_tag};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use hesgx_crypto::sha256::Sha256;
use hesgx_obs::{counters, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A local attestation report (`EREPORT` analogue).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// MRENCLAVE of the reporting enclave.
    pub measurement: [u8; 32],
    /// Caller-chosen payload (the paper carries HE keys here).
    pub user_data: Vec<u8>,
    mac: [u8; 32],
}

pub(crate) fn report_mac(
    report_key: &[u8; 32],
    measurement: &[u8; 32],
    user_data: &[u8],
) -> [u8; 32] {
    let mut msg = Vec::with_capacity(40 + user_data.len());
    msg.extend_from_slice(measurement);
    msg.extend_from_slice(&(user_data.len() as u64).to_le_bytes());
    msg.extend_from_slice(user_data);
    hmac_sha256(report_key, &msg)
}

impl Report {
    pub(crate) fn new(report_key: &[u8; 32], measurement: [u8; 32], user_data: Vec<u8>) -> Self {
        let mac = report_mac(report_key, &measurement, &user_data);
        Report {
            measurement,
            user_data,
            mac,
        }
    }

    pub(crate) fn verify(&self, report_key: &[u8; 32]) -> bool {
        verify_tag(
            &report_mac(report_key, &self.measurement, &self.user_data),
            &self.mac,
        )
    }
}

/// A remotely verifiable quote: a report counter-signed by the platform's
/// quoting enclave.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quote {
    /// MRENCLAVE of the attested enclave.
    pub measurement: [u8; 32],
    /// User data carried through from the report.
    pub user_data: Vec<u8>,
    /// Identifier of the signing platform.
    pub platform_id: [u8; 32],
    signature: Signature,
}

impl Quote {
    fn signed_bytes(measurement: &[u8; 32], user_data: &[u8], platform_id: &[u8; 32]) -> Vec<u8> {
        let mut h = Sha256::new();
        h.update(b"hesgx-quote-v1");
        h.update(measurement);
        h.update(&(user_data.len() as u64).to_le_bytes());
        h.update(user_data);
        h.update(platform_id);
        h.finalize().to_vec()
    }
}

/// The platform's quoting enclave: turns reports into signed quotes.
pub struct QuotingEnclave {
    platform_id: [u8; 32],
    report_key: [u8; 32],
    signing_key: SigningKey,
}

impl std::fmt::Debug for QuotingEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The report key authenticates EREPORTs platform-wide; never print it
        // (hesgx-lint: secret-debug).
        f.debug_struct("QuotingEnclave")
            .field("platform_id", &self.platform_id)
            .field("report_key", &"<redacted>")
            .finish()
    }
}

impl QuotingEnclave {
    pub(crate) fn new(platform_id: [u8; 32], report_key: [u8; 32], seed: u64) -> Self {
        let group = hesgx_crypto::schnorr::SchnorrGroup::default_group();
        let mut rng = ChaChaRng::from_seed(seed).fork("qe-attestation-key");
        QuotingEnclave {
            platform_id,
            report_key,
            signing_key: SigningKey::generate(group, &mut rng),
        }
    }

    /// The attestation verification key to register with the service.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// The platform identifier.
    pub fn platform_id(&self) -> [u8; 32] {
        self.platform_id
    }

    /// Verifies a local report and signs a quote over it.
    ///
    /// # Errors
    ///
    /// Fails with [`TeeError::ReportMacInvalid`] when the report was not
    /// produced on this platform.
    pub fn quote(&self, report: &Report) -> Result<Quote> {
        if !report.verify(&self.report_key) {
            return Err(TeeError::ReportMacInvalid);
        }
        let msg = Quote::signed_bytes(&report.measurement, &report.user_data, &self.platform_id);
        Ok(Quote {
            measurement: report.measurement,
            user_data: report.user_data.clone(),
            platform_id: self.platform_id,
            signature: self.signing_key.sign(&msg),
        })
    }
}

/// The verified content of a quote, as returned by the attestation service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedQuote {
    /// Verified enclave measurement.
    pub measurement: [u8; 32],
    /// Verified user data (e.g. the HE public key the enclave generated).
    pub user_data: Vec<u8>,
    /// The platform that produced the quote.
    pub platform_id: [u8; 32],
}

/// The remote attestation service — the Intel PCS / IAS analogue holding the
/// registry of genuine platforms.
#[derive(Debug, Default)]
pub struct AttestationService {
    /// Ordered map: registry iteration order must never vary across runs
    /// (replay contract; `unordered-iter` lint).
    platforms: BTreeMap<[u8; 32], VerifyingKey>,
    hook: Option<Arc<dyn FaultHook>>,
    recorder: Recorder,
}

impl AttestationService {
    /// Creates an empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a platform's attestation verification key (the provisioning
    /// step real platforms do through Intel).
    pub fn register_platform(&mut self, qe: &QuotingEnclave) {
        self.platforms.insert(qe.platform_id(), qe.verifying_key());
    }

    /// Installs a fault hook consulted at
    /// [`FaultSite::AttestationVerify`] on every [`AttestationService::verify`].
    /// A transient injection models the service timing out (retryable); a
    /// corruption injection models the quote arriving mangled
    /// ([`TeeError::QuoteSignatureInvalid`]).
    pub fn set_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.hook = Some(hook);
    }

    /// Installs an observability recorder; every verification attempt bumps
    /// the `attestation.verifies` counter (injected-fault failures included).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Verifies a quote's signature and provenance.
    ///
    /// # Errors
    ///
    /// Fails with [`TeeError::UnknownPlatform`],
    /// [`TeeError::QuoteSignatureInvalid`], or — under injected transient
    /// faults — [`TeeError::Interrupted`].
    pub fn verify(&self, quote: &Quote) -> Result<VerifiedQuote> {
        self.recorder.incr(counters::ATTESTATION_VERIFIES, 1);
        if let Some(kind) = self
            .hook
            .as_ref()
            .and_then(|h| h.inject(FaultSite::AttestationVerify))
        {
            return Err(match kind {
                FaultKind::Transient => TeeError::Interrupted(FaultSite::AttestationVerify),
                FaultKind::Corruption | FaultKind::Pressure => TeeError::QuoteSignatureInvalid,
            });
        }
        let vk = self
            .platforms
            .get(&quote.platform_id)
            .ok_or(TeeError::UnknownPlatform)?;
        let msg = Quote::signed_bytes(&quote.measurement, &quote.user_data, &quote.platform_id);
        if !vk.verify(&msg, &quote.signature) {
            return Err(TeeError::QuoteSignatureInvalid);
        }
        Ok(VerifiedQuote {
            measurement: quote.measurement,
            user_data: quote.user_data.clone(),
            platform_id: quote.platform_id,
        })
    }

    /// Verifies a quote *and* that it came from the expected enclave build.
    ///
    /// # Errors
    ///
    /// Additionally fails with [`TeeError::MeasurementMismatch`].
    pub fn verify_expecting(
        &self,
        quote: &Quote,
        expected_measurement: &[u8; 32],
    ) -> Result<VerifiedQuote> {
        let verified = self.verify(quote)?;
        if &verified.measurement != expected_measurement {
            return Err(TeeError::MeasurementMismatch {
                expected: *expected_measurement,
                actual: verified.measurement,
            });
        }
        Ok(verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (QuotingEnclave, AttestationService, [u8; 32]) {
        let report_key = [7u8; 32];
        let qe = QuotingEnclave::new([1u8; 32], report_key, 42);
        let mut service = AttestationService::new();
        service.register_platform(&qe);
        (qe, service, report_key)
    }

    #[test]
    fn full_attestation_flow() {
        let (qe, service, report_key) = setup();
        let report = Report::new(&report_key, [5u8; 32], b"he-public-key".to_vec());
        let quote = qe.quote(&report).unwrap();
        let verified = service.verify(&quote).unwrap();
        assert_eq!(verified.measurement, [5u8; 32]);
        assert_eq!(verified.user_data, b"he-public-key");
    }

    #[test]
    fn forged_report_rejected_by_qe() {
        let (qe, _, _) = setup();
        let wrong_key = [8u8; 32];
        let report = Report::new(&wrong_key, [5u8; 32], vec![]);
        assert_eq!(qe.quote(&report), Err(TeeError::ReportMacInvalid));
    }

    #[test]
    fn tampered_user_data_rejected() {
        let (qe, service, report_key) = setup();
        let report = Report::new(&report_key, [5u8; 32], b"key".to_vec());
        let mut quote = qe.quote(&report).unwrap();
        quote.user_data = b"evil-key".to_vec();
        assert_eq!(service.verify(&quote), Err(TeeError::QuoteSignatureInvalid));
    }

    #[test]
    fn unknown_platform_rejected() {
        let (_, service, report_key) = setup();
        let rogue = QuotingEnclave::new([9u8; 32], report_key, 43);
        let report = Report::new(&report_key, [5u8; 32], vec![]);
        let quote = rogue.quote(&report).unwrap();
        assert_eq!(service.verify(&quote), Err(TeeError::UnknownPlatform));
    }

    #[test]
    fn injected_verify_fault_is_transient_then_clears() {
        use hesgx_chaos::FaultPlan;
        let (qe, mut service, report_key) = setup();
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::AttestationVerify, 0, FaultKind::Transient)
                .build(),
        );
        service.set_fault_hook(injector);
        let report = Report::new(&report_key, [5u8; 32], b"key".to_vec());
        let quote = qe.quote(&report).unwrap();
        let err = service.verify(&quote).unwrap_err();
        assert_eq!(err, TeeError::Interrupted(FaultSite::AttestationVerify));
        assert!(err.is_transient());
        // The retry goes through.
        assert!(service.verify(&quote).is_ok());
    }

    #[test]
    fn injected_corruption_mangles_the_quote() {
        use hesgx_chaos::FaultPlan;
        let (qe, mut service, report_key) = setup();
        let injector = Arc::new(
            FaultPlan::new(1)
                .script(FaultSite::AttestationVerify, 0, FaultKind::Corruption)
                .build(),
        );
        service.set_fault_hook(injector);
        let report = Report::new(&report_key, [5u8; 32], vec![]);
        let quote = qe.quote(&report).unwrap();
        let err = service.verify(&quote).unwrap_err();
        assert_eq!(err, TeeError::QuoteSignatureInvalid);
        assert!(!err.is_transient());
    }

    #[test]
    fn measurement_pinning() {
        let (qe, service, report_key) = setup();
        let report = Report::new(&report_key, [5u8; 32], vec![]);
        let quote = qe.quote(&report).unwrap();
        assert!(service.verify_expecting(&quote, &[5u8; 32]).is_ok());
        assert!(matches!(
            service.verify_expecting(&quote, &[6u8; 32]),
            Err(TeeError::MeasurementMismatch { .. })
        ));
    }
}
