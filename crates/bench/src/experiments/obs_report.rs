//! `obs_report` — the deterministic observability layer's per-layer cost
//! table (not in the paper).
//!
//! Runs a fixed-seed session at worker-pool sizes 1/2/4 with an enabled
//! [`Recorder`], then checks the two contracts DESIGN.md §12 pins:
//!
//! 1. **Snapshot determinism** — `Recorder::snapshot_json` is byte-identical
//!    across runs and pool sizes (only modeled cost terms and entry counts
//!    reach the file; wall-derived terms stay in memory).
//! 2. **Reconciliation** — summing the in-memory `infer.layer[i].ecall`
//!    spans reproduces `total_enclave_cost(&metrics)` exactly, nanosecond
//!    for nanosecond, because both sides are fed the same `CostBreakdown`.
//!
//! The snapshot is written to `target/obs/obs_report.json` for CI to archive.

use super::chaos_sweep::{sweep_model, sweep_params};
use super::{header, RunConfig};
use hesgx_core::pipeline::total_enclave_cost;
use hesgx_core::prelude::*;
use hesgx_obs::{counters, Recorder, SpanCost};

/// Runs the report, prints the table, writes `target/obs/obs_report.json`.
pub fn obs_report(cfg: RunConfig) {
    header("OBS REPORT: deterministic per-layer cost accounting (not in the paper)");
    let model = sweep_model(cfg.quick);
    let image: Vec<i64> = (0..model.in_side * model.in_side)
        .map(|p| ((p * 3) % 16) as i64)
        .collect();

    let mut snaps = Vec::new();
    let mut first: Option<(HybridMetrics, Recorder)> = None;
    for threads in [1usize, 2, 4] {
        let rec = Recorder::enabled();
        let session = SessionBuilder::new()
            .params(sweep_params(&model).0)
            .threads(threads)
            .seed(7)
            .recorder(rec.clone())
            .build(Platform::new(702), model.clone())
            .expect("obs report provisioning");
        let response = session
            .serve(InferRequest::single(image.clone()))
            .expect("fault-free inference");
        snaps.push(session.obs_snapshot_json());
        if first.is_none() {
            first = Some((response.metrics, rec));
        }
    }
    let snapshots_identical = snaps.windows(2).all(|w| w[0] == w[1]);
    let (metrics, rec) = first.expect("at least one pool size ran");

    let total = total_enclave_cost(&metrics);
    let spans = rec.spans_with_prefix("infer.");
    let folded = spans
        .iter()
        .filter(|(name, _)| name.ends_with(".ecall"))
        .fold(SpanCost::default(), |acc, (_, s)| {
            acc.saturating_add(s.cost)
        });
    let reconciled = folded == total;
    let delta_ns = u128::from(folded.total_ns()).abs_diff(u128::from(total.total_ns()));

    println!(
        "input {}×{} | FV n = {} | pools 1/2/4 | seed 7",
        model.in_side,
        model.in_side,
        sweep_params(&model).1
    );
    println!();
    println!("span                          entries   transition(ns)    copy(ns)   paging(ns)     total(ns)");
    for (span, s) in &spans {
        let c = &s.cost;
        println!(
            "{span:<28} {:>8} {:>16} {:>11} {:>12} {:>13}",
            s.entries,
            c.transition_ns,
            c.copy_ns,
            c.paging_ns,
            c.total_ns()
        );
    }
    println!();
    println!(
        "total_enclave_cost(metrics): {} ns | obs .ecall fold: {} ns | Δ = {} ns",
        total.total_ns(),
        folded.total_ns(),
        delta_ns
    );
    println!("reconciles ns-for-ns: {reconciled}");
    println!("snapshots byte-identical across pools 1/2/4: {snapshots_identical}");
    println!(
        "ecalls {} | transitions {} | bytes marshalled {} | page faults {} | par tasks {}",
        rec.counter(counters::ECALLS),
        rec.counter(counters::ECALL_TRANSITIONS),
        rec.counter(counters::BYTES_MARSHALLED),
        rec.counter(counters::EPC_PAGE_FAULTS),
        rec.counter(counters::PAR_TASKS),
    );

    if let Some(path) = crate::write_obs_snapshot("obs_report", &rec) {
        println!("obs snapshot written to {}", path.display());
    }

    // CI gates on this experiment: a broken contract must fail the run, not
    // just print `false` in a table nobody re-reads.
    assert!(
        snapshots_identical,
        "obs snapshots diverged across pool sizes 1/2/4"
    );
    assert!(
        reconciled,
        "obs .ecall fold diverged from total_enclave_cost by {delta_ns} ns"
    );
}
