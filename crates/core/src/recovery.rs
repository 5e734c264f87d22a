//! Bounded-retry recovery for transient enclave faults.
//!
//! The recovery ladder (DESIGN.md §11) starts here: a transient failure —
//! an interrupted ECALL, a dropped noise-refresh request, an attestation
//! timeout — is retried up to [`MAX_RETRIES`] times with a deterministic
//! exponential backoff from [`BACKOFF_BASE_NS`]. Every attempt's enclave
//! cost is summed into the returned [`CostBreakdown`], so retried
//! transitions stay on the books (the `ecall-cost` lint audits this file).
//! Retry decisions are reported to the installed [`FaultHook`] so a chaos
//! run's `FaultReport` records exactly what the recovery layer did.
//!
//! The backoff is *logical*: it is recorded in the report and charged
//! nowhere, because sleeping in a simulator proves nothing and would couple
//! the report to wall-clock time. Determinism of the report across runs and
//! thread counts is the contract the chaos property tests pin.

use crate::error::Result;
use hesgx_chaos::{FaultHook, FaultSite, RecoveryEvent};
use hesgx_obs::{counters, Recorder};
use hesgx_tee::cost::CostBreakdown;

/// Maximum retries after the first failed attempt, so an operation runs at
/// most `MAX_RETRIES + 1` times.
pub const MAX_RETRIES: u32 = 3;

/// Base of the exponential backoff: retry `n` (zero-based) backs off
/// `BACKOFF_BASE_NS << n` nanoseconds.
pub const BACKOFF_BASE_NS: u64 = 1_000_000;

/// Deterministic backoff before retry `attempt` (zero-based):
/// `BACKOFF_BASE_NS << attempt`, saturating. `checked_shl` keeps attempts
/// ≥ 64 at the saturation plateau instead of overflowing the shift (a debug
/// panic / release wrap that would collapse the backoff back to tiny values).
fn backoff_ns(attempt: u32) -> u64 {
    let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
    BACKOFF_BASE_NS.saturating_mul(factor)
}

/// Runs `op`, retrying transient failures and summing the
/// enclave cost of every attempt (failed attempts included — an aborted
/// `EENTER` still crossed the boundary).
///
/// Fatal failures propagate immediately. Each retry and the final outcome
/// (recovered / exhausted) is reported to `hook` as a [`RecoveryEvent`].
///
/// Every attempt — including one that failed *before* crossing the boundary
/// and was therefore charged `CostBreakdown::default()` — is recorded as an
/// entry under the `recovery.retry` span on `recorder`, so attempt counts in
/// a `FaultReport` always reconcile with recorded cost entries even when the
/// cost books legitimately show zero for a dropped request.
pub fn retry_with_cost<T>(
    hook: Option<&dyn FaultHook>,
    recorder: &Recorder,
    mut op: impl FnMut() -> (Result<T>, CostBreakdown),
) -> (Result<T>, CostBreakdown) {
    let mut total = CostBreakdown::default();
    let mut attempts = 0u32;
    let mut last_site: Option<FaultSite> = None;
    loop {
        let (result, cost) = op();
        total = total.saturating_add(cost);
        recorder.record_span("recovery.retry", cost);
        recorder.incr(counters::RECOVERY_ATTEMPTS, 1);
        attempts += 1;
        match result {
            Ok(value) => {
                if attempts > 1 {
                    if let (Some(h), Some(site)) = (hook, last_site) {
                        h.on_recovery(RecoveryEvent::Recovered { site, attempts });
                    }
                }
                recorder.observe("recovery.depth", u64::from(attempts));
                return (Ok(value), total);
            }
            Err(err) if err.is_transient() => {
                // Transient errors always carry a site (only `Interrupted`
                // classifies transient); default defensively anyway.
                let site = err.fault_site().unwrap_or(FaultSite::EcallEnter);
                last_site = Some(site);
                let retry_index = attempts - 1;
                if retry_index < MAX_RETRIES {
                    recorder.incr(counters::RECOVERY_RETRIES, 1);
                    if recorder.trace_enabled() {
                        recorder.trace_instant(
                            "recovery.retry",
                            &[
                                ("attempt", retry_index.to_string()),
                                ("backoff_ns", backoff_ns(retry_index).to_string()),
                                ("site", format!("{site:?}")),
                            ],
                        );
                    }
                    if let Some(h) = hook {
                        h.on_recovery(RecoveryEvent::Retry {
                            site,
                            attempt: retry_index,
                            backoff_ns: backoff_ns(retry_index),
                        });
                    }
                    continue;
                }
                if let Some(h) = hook {
                    h.on_recovery(RecoveryEvent::RetriesExhausted { site, attempts });
                }
                recorder.observe("recovery.depth", u64::from(attempts));
                return (Err(err), total);
            }
            Err(err) => {
                recorder.observe("recovery.depth", u64::from(attempts));
                return (Err(err), total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use hesgx_chaos::{ChaosEvent, FaultPlan};
    use hesgx_tee::error::TeeError;
    use std::sync::Arc;

    fn transient() -> Error {
        Error::Tee(TeeError::Interrupted(FaultSite::EcallEnter))
    }

    fn unit_cost() -> CostBreakdown {
        CostBreakdown {
            transition_ns: 10,
            ..CostBreakdown::default()
        }
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_ns(0), 1_000_000);
        assert_eq!(backoff_ns(1), 2_000_000);
        assert_eq!(backoff_ns(2), 4_000_000);
        // 10^6 · 2^44 still fits a u64; one doubling more saturates.
        assert_eq!(backoff_ns(44), 1_000_000 << 44);
        assert_eq!(backoff_ns(45), u64::MAX);
        // At 64 and beyond the shift itself overflows; checked_shl pins the
        // factor (and therefore the product) to the saturation plateau
        // rather than wrapping back to small values.
        assert_eq!(backoff_ns(64), u64::MAX);
        assert_eq!(backoff_ns(200), u64::MAX);
    }

    #[test]
    fn first_try_success_sums_one_cost_and_reports_nothing() {
        let recorder = Arc::new(FaultPlan::new(0).build());
        let (res, cost) = retry_with_cost(Some(recorder.as_ref()), &Recorder::disabled(), || {
            (Ok(42), unit_cost())
        });
        assert_eq!(res.ok(), Some(42));
        assert_eq!(cost.transition_ns, 10);
        assert!(recorder.report().events.is_empty());
    }

    #[test]
    fn transient_failures_retry_then_recover() {
        let recorder = Arc::new(FaultPlan::new(0).build());
        let mut calls = 0;
        let (res, cost) = retry_with_cost(Some(recorder.as_ref()), &Recorder::disabled(), || {
            calls += 1;
            if calls < 3 {
                (Err(transient()), unit_cost())
            } else {
                (Ok("done"), unit_cost())
            }
        });
        assert_eq!(res.ok(), Some("done"));
        // Every attempt's boundary cost stays on the books.
        assert_eq!(cost.transition_ns, 30);
        let report = recorder.report();
        assert_eq!(report.retries(), 2);
        assert!(matches!(
            report.events.last(),
            Some(ChaosEvent::Recovery(RecoveryEvent::Recovered {
                attempts: 3,
                ..
            }))
        ));
        // Backoff recorded for each retry is deterministic and exponential.
        let backoffs: Vec<u64> = report
            .events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::Recovery(RecoveryEvent::Retry { backoff_ns, .. }) => Some(*backoff_ns),
                _ => None,
            })
            .collect();
        assert_eq!(backoffs, vec![1_000_000, 2_000_000]);
    }

    #[test]
    fn exhaustion_propagates_the_error() {
        let recorder = Arc::new(FaultPlan::new(0).build());
        let mut calls = 0;
        let (res, cost) = retry_with_cost(Some(recorder.as_ref()), &Recorder::disabled(), || {
            calls += 1;
            (Err::<(), _>(transient()), unit_cost())
        });
        assert!(res.is_err());
        assert_eq!(calls, 4); // 1 attempt + MAX_RETRIES retries
        assert_eq!(cost.transition_ns, 40);
        let report = recorder.report();
        assert_eq!(report.retries(), 3);
        assert!(matches!(
            report.events.last(),
            Some(ChaosEvent::Recovery(RecoveryEvent::RetriesExhausted {
                attempts: 4,
                ..
            }))
        ));
    }

    #[test]
    fn every_attempt_lands_in_the_obs_span_even_when_free() {
        // A pre-boundary failure is charged CostBreakdown::default(); the
        // attempt must still leave a recorded entry (the PR-3 accounting gap).
        let hook = Arc::new(FaultPlan::new(0).build());
        let obs = Recorder::enabled();
        let mut calls = 0;
        let (res, cost) = retry_with_cost(Some(hook.as_ref()), &obs, || {
            calls += 1;
            if calls < 3 {
                // Dropped before the boundary: zero cost.
                (Err(transient()), CostBreakdown::default())
            } else {
                (Ok(()), unit_cost())
            }
        });
        assert!(res.is_ok());
        assert_eq!(cost.transition_ns, 10, "only the real crossing charged");
        let span = obs.span("recovery.retry").expect("attempts recorded");
        assert_eq!(span.entries, 3, "zero-cost attempts still counted");
        assert_eq!(span.cost.transition_ns, 10);
        assert_eq!(obs.counter(counters::RECOVERY_ATTEMPTS), 3);
        assert_eq!(obs.counter(counters::RECOVERY_RETRIES), 2);
        // FaultReport retries and obs retries agree.
        assert_eq!(hook.report().retries(), 2);
    }

    #[test]
    fn fatal_errors_never_retry() {
        let recorder = Arc::new(FaultPlan::new(0).build());
        let mut calls = 0;
        let (res, _) = retry_with_cost(Some(recorder.as_ref()), &Recorder::disabled(), || {
            calls += 1;
            (Err::<(), _>(Error::Internal("broken")), unit_cost())
        });
        assert!(res.is_err());
        assert_eq!(calls, 1);
        assert!(recorder.report().events.is_empty());
    }
}
