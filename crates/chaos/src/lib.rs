//! # hesgx-chaos
//!
//! Seed-deterministic fault injection for the hybrid HE+SGX inference
//! framework.
//!
//! The paper's availability story (ROADMAP north star: serving heavy traffic)
//! only holds if the pipeline survives the enclave boundary misbehaving —
//! ECALLs failing transiently, EPC pages evicted under outside pressure,
//! sealed key blobs rotting on untrusted storage, the attestation service
//! timing out, noise-refresh requests being dropped. This crate makes those
//! failures *injectable, deterministic, and observable*:
//!
//! * [`FaultSite`] names every place the TEE simulator consults the fault
//!   layer (ECALL entry/exit, EPC load/evict, seal/unseal, attestation
//!   verification, noise refresh).
//! * [`FaultHook`] is the lightweight trait the simulator calls at each site.
//!   The hook is optional everywhere — `None` is the default and costs one
//!   branch on an `Option` per site, nothing in release paths that never
//!   install one.
//! * [`FaultPlan`] describes *when* faults fire: seeded Bernoulli rates per
//!   site (ChaCha streams from [`hesgx_crypto::rng`], so the same seed always
//!   produces the same schedule), per-site caps, and scripted
//!   "fail the n-th consultation" triggers for precise tests.
//! * [`FaultInjector`] executes a plan and records every injected fault and
//!   every recovery decision into a [`FaultReport`] whose JSON encoding is
//!   byte-stable across runs and thread counts.
//!
//! Determinism contract: every consultation site in the simulator sits on a
//! serial code path (ECALL dispatch, heap touches before fan-out, sealing,
//! attestation), so the consultation *sequence* — and therefore the report —
//! is independent of worker-pool size. The report carries only logical data
//! (sites, occurrence indices, attempt counts, deterministic backoff values);
//! no wall-clock time ever enters it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod report;

pub use plan::{FaultInjector, FaultPlan};
pub use report::{ChaosEvent, FaultReport, RecoveryEvent};

/// A named place where the TEE simulator consults the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Before an ECALL body runs (the EENTER transition fails; the body never
    /// executes, only the aborted boundary crossing is charged).
    EcallEnter,
    /// After an ECALL body ran but before its result crosses back out (the
    /// result is lost; the full call is charged).
    EcallExit,
    /// A resident EPC page is touched (injected pressure: the page behaves as
    /// if evicted by another enclave and must fault back in).
    EpcLoad,
    /// A page fault triggers the eviction path (injected pressure: one extra
    /// victim page is evicted).
    EpcEvict,
    /// Sealing data to the enclave identity (injected corruption: the blob is
    /// silently damaged, detected only at the next unseal).
    Seal,
    /// Unsealing a blob (the blob fails its integrity check).
    Unseal,
    /// The remote attestation service verifying a quote.
    AttestationVerify,
    /// A noise-refresh request before it reaches the enclave
    /// (`ecall_DecreaseNoise` — the request is dropped and must be retried).
    NoiseRefresh,
    /// A transciphered ingress payload before it reaches the enclave
    /// (`ecall_Transcipher` — the sealed upload is dropped in transit and
    /// must be retried).
    Transcipher,
}

impl FaultSite {
    /// All sites, in declaration order (stable: report indices and JSON rely
    /// on it; new sites append, so existing per-site RNG streams — forked by
    /// name — never shift).
    pub const ALL: [FaultSite; 9] = [
        FaultSite::EcallEnter,
        FaultSite::EcallExit,
        FaultSite::EpcLoad,
        FaultSite::EpcEvict,
        FaultSite::Seal,
        FaultSite::Unseal,
        FaultSite::AttestationVerify,
        FaultSite::NoiseRefresh,
        FaultSite::Transcipher,
    ];

    /// Stable machine name (used in the report JSON and RNG domain
    /// separation).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::EcallEnter => "ecall-enter",
            FaultSite::EcallExit => "ecall-exit",
            FaultSite::EpcLoad => "epc-load",
            FaultSite::EpcEvict => "epc-evict",
            FaultSite::Seal => "seal",
            FaultSite::Unseal => "unseal",
            FaultSite::AttestationVerify => "attestation-verify",
            FaultSite::NoiseRefresh => "noise-refresh",
            FaultSite::Transcipher => "transcipher",
        }
    }

    /// Index into [`FaultSite::ALL`].
    pub fn index(self) -> usize {
        match self {
            FaultSite::EcallEnter => 0,
            FaultSite::EcallExit => 1,
            FaultSite::EpcLoad => 2,
            FaultSite::EpcEvict => 3,
            FaultSite::Seal => 4,
            FaultSite::Unseal => 5,
            FaultSite::AttestationVerify => 6,
            FaultSite::NoiseRefresh => 7,
            FaultSite::Transcipher => 8,
        }
    }

    /// The kind of fault this site naturally produces (used by
    /// [`FaultPlan::rate`] when no explicit kind is given).
    pub fn natural_kind(self) -> FaultKind {
        match self {
            FaultSite::EcallEnter
            | FaultSite::EcallExit
            | FaultSite::AttestationVerify
            | FaultSite::NoiseRefresh
            | FaultSite::Transcipher => FaultKind::Transient,
            FaultSite::EpcLoad | FaultSite::EpcEvict => FaultKind::Pressure,
            FaultSite::Seal | FaultSite::Unseal => FaultKind::Corruption,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injected fault does to the operation it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation fails but retrying it can succeed (a dropped ECALL, an
    /// attestation-service timeout, a dropped refresh request).
    Transient,
    /// Data is silently damaged (a sealed blob rots on untrusted storage, a
    /// quote arrives mangled); detected later by an integrity check.
    Corruption,
    /// Capacity pressure: the operation still succeeds but pays extra cost
    /// (an EPC page evicted by a competing enclave must fault back in).
    Pressure,
}

impl FaultKind {
    /// Stable machine name (used in the report JSON).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Corruption => "corruption",
            FaultKind::Pressure => "pressure",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The trait the TEE simulator consults at every [`FaultSite`].
///
/// Implementations must be `Send + Sync` (the enclave is shared across
/// worker threads) and `Debug` (the simulator types that hold a hook derive
/// `Debug`). The production default is no hook at all; [`FaultInjector`] is
/// the test-time implementation.
pub trait FaultHook: Send + Sync + std::fmt::Debug {
    /// Called when execution reaches `site`. Returning `Some(kind)` injects a
    /// fault of that kind; `None` lets the operation proceed normally.
    fn inject(&self, site: FaultSite) -> Option<FaultKind>;

    /// Called by the recovery layer when it makes a decision (retry,
    /// re-provision, degrade). Default: ignored.
    fn on_recovery(&self, event: RecoveryEvent) {
        let _ = event;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_and_indices_are_stable() {
        for (i, site) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
            assert!(!site.name().is_empty());
        }
        // Names are unique (the JSON encoding depends on it).
        let mut names: Vec<_> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultSite::ALL.len());
    }

    #[test]
    fn natural_kinds_match_site_semantics() {
        assert_eq!(FaultSite::EcallEnter.natural_kind(), FaultKind::Transient);
        assert_eq!(FaultSite::EpcLoad.natural_kind(), FaultKind::Pressure);
        assert_eq!(FaultSite::Seal.natural_kind(), FaultKind::Corruption);
    }
}
