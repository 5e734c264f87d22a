//! Chaos property tests: the determinism contract of the fault-injection
//! subsystem.
//!
//! Two properties are pinned across worker-pool sizes 1/2/4:
//!
//! 1. **Transient faults never change output** — a plan that injects only
//!    recoverable faults (interrupted ECALLs, EPC pressure), capped under
//!    the retry budget, produces logits bit-identical
//!    to the fault-free run. The enclave decrypts exactly on any successful
//!    attempt, so recovery is invisible in the plaintext.
//! 2. **Same seed → same report** — the `FaultReport` (and its JSON
//!    encoding) is a pure function of the plan seed: byte-stable across
//!    repeat runs and across thread counts, because every consultation site
//!    sits on a serial code path.

mod testutil;

use hesgx_core::prelude::*;
use hesgx_core::session::Session;
use proptest::prelude::*;
use std::sync::OnceLock;

const POOLS: [usize; 3] = [1, 2, 4];
/// Per-site injection probability; every site stays under the retry budget
/// via the cap, so runs always recover.
const RATE: f64 = 0.25;
/// At most one rate-triggered fault per site: even the worst interleaving
/// (entry, then exit fault on one ECALL) stays within the default budget of
/// 3 retries.
const CAP: u64 = 1;

fn batch() -> Vec<Vec<i64>> {
    (0..2)
        .map(|b| (0..64).map(|p| ((p * 3 + b * 5) % 16) as i64).collect())
        .collect()
}

/// Builds a session with fixed seeds — only `threads` and the fault plan
/// vary between runs.
fn build(threads: usize, plan: Option<FaultPlan>) -> Session {
    let mut builder = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(threads)
        .seed(77);
    if let Some(plan) = plan {
        builder = builder.chaos(plan);
    }
    builder
        .build(Platform::new(900), testutil::small_hybrid_model())
        .unwrap()
}

fn run(threads: usize, plan: Option<FaultPlan>) -> (Vec<Vec<i64>>, Option<String>) {
    let session = build(threads, plan);
    let rows = session.serve(InferRequest::batch(batch())).unwrap().logits;
    (rows, session.fault_report_json())
}

/// Fault-free reference logits, computed once per pool size.
fn baseline(pool_index: usize) -> &'static Vec<Vec<i64>> {
    static BASELINES: OnceLock<Vec<Vec<Vec<i64>>>> = OnceLock::new();
    &BASELINES.get_or_init(|| POOLS.iter().map(|&t| run(t, None).0).collect())[pool_index]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn transient_only_plans_leave_output_bit_identical(seed in 0u64..1_000_000u64) {
        for (i, &threads) in POOLS.iter().enumerate() {
            let plan = FaultPlan::transient_only(seed, RATE, CAP);
            let (rows, report) = run(threads, Some(plan));
            prop_assert_eq!(
                &rows,
                baseline(i),
                "seed {} with {} threads diverged (report: {:?})",
                seed,
                threads,
                report
            );
        }
    }

    #[test]
    fn same_seed_means_same_report_across_runs_and_pools(seed in 0u64..1_000_000u64) {
        let reference = run(POOLS[0], Some(FaultPlan::transient_only(seed, RATE, CAP))).1;
        prop_assert!(reference.is_some(), "chaos sessions must carry a report");
        // Byte-stable on a repeat run with the same pool size...
        let repeat = run(POOLS[0], Some(FaultPlan::transient_only(seed, RATE, CAP))).1;
        prop_assert_eq!(&reference, &repeat, "seed {} not run-stable", seed);
        // ...and across every other pool size.
        for &threads in &POOLS[1..] {
            let other = run(threads, Some(FaultPlan::transient_only(seed, RATE, CAP))).1;
            prop_assert_eq!(&reference, &other, "seed {} differs at {} threads", seed, threads);
        }
    }
}

/// The byte-stability half of the acceptance criterion, pinned on one fixed
/// seed over three consecutive runs (no proptest machinery in the way).
#[test]
fn fixed_seed_report_is_byte_stable_over_three_runs() {
    let json: Vec<Option<String>> = (0..3)
        .map(|_| run(2, Some(FaultPlan::transient_only(42, RATE, CAP))).1)
        .collect();
    assert!(json[0].is_some());
    assert_eq!(json[0], json[1]);
    assert_eq!(json[1], json[2]);
}
