//! The calibrated cost model and virtual clock.
//!
//! Real SGX makes in-enclave work slower through several distinct mechanisms:
//! EENTER/EEXIT transitions, data marshalling across the boundary, memory
//! encryption (MEE) on every cache miss, and EPC paging when the working set
//! exceeds the protected memory. The simulator executes all enclave work for
//! real and *charges* these mechanisms as explicit terms on a virtual clock:
//!
//! ```text
//! virtual_time = real_elapsed × in_enclave_factor
//!              + transitions × transition_ns
//!              + copied_bytes × per_byte_copy_ns
//!              + page_faults × page_swap_ns
//!              + jitter
//! ```
//!
//! The default constants are calibrated against the paper's measurements
//! (Table I: key generation 49.593 ms inside vs 20.201 ms outside → factor
//! ≈ 2.45; Table I also shows a larger standard deviation inside, reproduced
//! by the deterministic jitter term).

use hesgx_crypto::rng::ChaChaRng;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Tunable constants of the enclave cost model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Multiplier on real CPU time spent inside the enclave
    /// (memory-encryption-engine and cache effects). Paper Table I ratio.
    pub in_enclave_factor: f64,
    /// Cost of one world-switch transition, nanoseconds; an ECALL pays two
    /// (EENTER + EEXIT).
    pub transition_ns: u64,
    /// Cost of evicting + reloading one EPC page (seal, MAC, copy), ns.
    pub page_swap_ns: u64,
    /// Marshalling cost per byte copied across the enclave boundary, ns.
    pub per_byte_copy_ns: f64,
    /// Relative standard deviation of in-enclave timing jitter (Table I shows
    /// σ/µ ≈ 0.07 inside vs 0.04 outside).
    pub jitter_rel_std: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            in_enclave_factor: 2.45,
            transition_ns: 8_000,
            page_swap_ns: 12_000,
            per_byte_copy_ns: 0.5,
            jitter_rel_std: 0.07,
        }
    }
}

impl CostModel {
    /// A zero-overhead model: virtual time equals real time. Used for the
    /// paper's `FakeSGX` control groups (same code, outside the enclave).
    pub fn fake_sgx() -> Self {
        CostModel {
            in_enclave_factor: 1.0,
            transition_ns: 0,
            page_swap_ns: 0,
            per_byte_copy_ns: 0.0,
            jitter_rel_std: 0.0,
        }
    }
}

/// Per-call breakdown of charged virtual time: the six terms of the formula
/// above. One type with the observability layer's span cost, so a charge is
/// recorded, folded and exported without conversion.
pub use hesgx_obs::SpanCost as CostBreakdown;

/// Prices enclave calls for one enclave. It keeps no running total: the
/// observability recorder is the one ledger of what was charged.
#[derive(Debug)]
pub struct VirtualClock {
    model: CostModel,
    rng: Mutex<ChaChaRng>,
}

impl VirtualClock {
    /// Creates a clock with deterministic jitter derived from `seed`.
    pub fn new(model: CostModel, seed: u64) -> Self {
        VirtualClock {
            model,
            rng: Mutex::new(ChaChaRng::from_seed(seed).fork("tee-vclock")),
        }
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Charges one enclave call and returns its breakdown.
    ///
    /// `real_ns` is the measured body time, `transitions` the number of
    /// boundary crossings (usually 2: enter + exit), `copied_bytes` the
    /// marshalled argument/result volume, and `page_faults` the EPC faults
    /// the call incurred. Every term and the jitter base saturate at
    /// `u64::MAX`: the model's fields are public, and a ruinously expensive
    /// setting must be charged as such, never wrap to a cheap one.
    pub fn charge(
        &self,
        real_ns: u64,
        transitions: u64,
        copied_bytes: u64,
        page_faults: u64,
    ) -> CostBreakdown {
        let m = &self.model;
        let slowdown = (real_ns as f64 * (m.in_enclave_factor - 1.0)).max(0.0) as u64;
        let transition = transitions.saturating_mul(m.transition_ns);
        let copy = (copied_bytes as f64 * m.per_byte_copy_ns) as u64;
        let paging = page_faults.saturating_mul(m.page_swap_ns);
        let jitter = if m.jitter_rel_std > 0.0 {
            let base = real_ns
                .saturating_add(slowdown)
                .saturating_add(transition)
                .saturating_add(copy)
                .saturating_add(paging) as f64;
            (self.rng.lock().next_gaussian() * m.jitter_rel_std * base) as i64
        } else {
            0
        };
        CostBreakdown {
            real_ns,
            slowdown_ns: slowdown,
            transition_ns: transition,
            copy_ns: copy,
            paging_ns: paging,
            jitter_ns: jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_matches_paper_ratio() {
        let m = CostModel::default();
        assert!((m.in_enclave_factor - 49.593 / 20.201).abs() < 0.01);
    }

    #[test]
    fn fake_sgx_charges_nothing_extra() {
        let clock = VirtualClock::new(CostModel::fake_sgx(), 0);
        let b = clock.charge(1_000_000, 2, 4096, 10);
        assert_eq!(b.total_ns(), 1_000_000);
        assert_eq!(b.slowdown_ns, 0);
        assert_eq!(b.paging_ns, 0);
    }

    #[test]
    fn breakdown_terms() {
        let model = CostModel {
            jitter_rel_std: 0.0,
            ..CostModel::default()
        };
        let clock = VirtualClock::new(model.clone(), 2);
        let b = clock.charge(10_000, 2, 1000, 3);
        assert_eq!(b.real_ns, 10_000);
        assert_eq!(
            b.slowdown_ns,
            (10_000.0 * (model.in_enclave_factor - 1.0)) as u64
        );
        assert_eq!(b.transition_ns, 2 * model.transition_ns);
        assert_eq!(b.copy_ns, 500);
        assert_eq!(b.paging_ns, 3 * model.page_swap_ns);
    }

    #[test]
    fn near_max_breakdowns_saturate_instead_of_wrapping() {
        let near = CostBreakdown {
            real_ns: u64::MAX - 10,
            slowdown_ns: u64::MAX - 10,
            transition_ns: u64::MAX - 10,
            copy_ns: u64::MAX - 10,
            paging_ns: u64::MAX - 10,
            jitter_ns: i64::MAX - 10,
        };
        // total_ns over an already-huge base must clamp at u64::MAX …
        assert_eq!(near.total_ns(), u64::MAX);
        // … and folding two near-max breakdowns must clamp component-wise.
        let sum = near.saturating_add(near);
        assert_eq!(sum.real_ns, u64::MAX);
        assert_eq!(sum.paging_ns, u64::MAX);
        assert_eq!(sum.jitter_ns, i64::MAX);
        assert_eq!(sum.total_ns(), u64::MAX);
        // A dominant negative jitter clamps the total at zero, not wraps.
        let negative = CostBreakdown {
            real_ns: 5,
            jitter_ns: i64::MIN + 1,
            ..CostBreakdown::default()
        };
        assert_eq!(negative.total_ns(), 0);
    }

    #[test]
    fn near_max_model_terms_saturate_instead_of_wrapping() {
        // Regression test: the transition and paging products used to be
        // unchecked — a debug build panicked, a release build charged a
        // wrapped (here: zero) cost for a ruinously expensive crossing.
        let model = CostModel {
            transition_ns: u64::MAX / 2 + 1,
            page_swap_ns: u64::MAX / 3,
            jitter_rel_std: 0.0,
            ..CostModel::default()
        };
        let clock = VirtualClock::new(model, 4);
        let b = clock.charge(0, 2, 0, 0);
        assert_eq!(b.transition_ns, u64::MAX);
        assert_eq!(b.total_ns(), u64::MAX);
        let b = clock.charge(0, 0, 0, 4);
        assert_eq!(b.paging_ns, u64::MAX);
        // With jitter on, the base sum saturates too instead of wrapping.
        let jittered = VirtualClock::new(
            CostModel {
                transition_ns: u64::MAX,
                ..CostModel::default()
            },
            5,
        );
        let b = jittered.charge(u64::MAX, 2, u64::MAX, 0);
        assert_eq!(b.transition_ns, u64::MAX);
        assert_eq!(b.slowdown_ns, u64::MAX);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let a = VirtualClock::new(CostModel::default(), 7);
        let b = VirtualClock::new(CostModel::default(), 7);
        assert_eq!(a.charge(1_000_000, 2, 0, 0), b.charge(1_000_000, 2, 0, 0));
    }

    #[test]
    fn jitter_widens_inside_variance() {
        // The enclave model must add variance the fake model lacks — the
        // paper's Table I STD observation.
        let clock = VirtualClock::new(CostModel::default(), 3);
        let samples: Vec<u64> = (0..200)
            .map(|_| clock.charge(1_000_000, 2, 0, 0).total_ns())
            .collect();
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(distinct.len() > 100, "jitter should vary per call");
    }
}
