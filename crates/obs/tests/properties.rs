//! Property tests of the histogram and exporter invariants (ISSUE 5):
//! bucket counts always sum to the entry count, bucket-derived percentiles
//! are monotone and bucket-aligned, and equal recorder contents render to
//! byte-identical snapshot / Chrome-trace / Prometheus outputs regardless
//! of which handle recorded them.

use hesgx_obs::{bucket_index, bucket_upper, Histogram, Recorder, SpanCost, TracePhase};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bucket_counts_sum_to_entry_count(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let bucket_total: u64 = h.bucket_counts().iter().sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
        prop_assert_eq!(h.count(), values.len() as u64);
        let nonzero_total: u64 = h.nonzero_buckets().iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(nonzero_total, values.len() as u64);
    }

    #[test]
    fn every_value_lands_in_its_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(v <= bucket_upper(i));
        if i > 0 {
            prop_assert!(v > bucket_upper(i - 1));
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bucket_aligned(values in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let (p50, p95, p99) = (h.percentile(50), h.percentile(95), h.percentile(99));
        prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        for p in [p50, p95, p99] {
            prop_assert_eq!(p, bucket_upper(bucket_index(p)), "{} is not a bucket bound", p);
        }
        // The reported quantile is never below the true minimum's bucket,
        // never above the true maximum's bucket.
        let lo = bucket_upper(bucket_index(*values.iter().min().unwrap()));
        let hi = bucket_upper(bucket_index(*values.iter().max().unwrap()));
        prop_assert!(p50 >= lo && p99 <= hi);
    }

    #[test]
    fn percentile_matches_exact_rank_walk(values in proptest::collection::vec(0u64..100_000, 1..100), p in 1u8..100) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        // Reference: sort the raw values, take the ceil-rank element, and
        // round it up to its bucket bound — must agree with the histogram.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() as u128 * u128::from(p)).div_ceil(100).max(1) as usize;
        let expected = bucket_upper(bucket_index(sorted[rank - 1]));
        prop_assert_eq!(h.percentile(p), expected);
    }

    #[test]
    fn equal_contents_render_identical_bytes(
        names in proptest::collection::vec(0usize..6, 1..40),
        values in proptest::collection::vec(any::<u64>(), 1..40),
        advances in proptest::collection::vec(0u64..1_000_000, 1..40),
    ) {
        const LABELS: [&str; 6] = [
            "infer.layer[1].ecall",
            "ecall.bytes",
            "epc.load",
            "recovery.depth",
            "noise.budget.layer[3].pre",
            "par.tasks",
        ];
        let build = || {
            let r = Recorder::with_timeline();
            for ((&n, &v), &adv) in names.iter().zip(&values).zip(advances.iter().cycle()) {
                let label = LABELS[n % LABELS.len()];
                r.incr(label, v % 17);
                r.observe(label, v);
                r.gauge(label, v % 64);
                r.record_span(label, SpanCost {
                    transition_ns: v % 1000,
                    copy_ns: v % 777,
                    paging_ns: v % 321,
                    ..SpanCost::default()
                });
                let scope = r.open(label, &[("v", v % 97)]);
                r.trace_advance(adv);
                r.trace_instant("epc.load", &[]);
                drop(scope);
            }
            r
        };
        let (a, b) = (build(), build());
        prop_assert_eq!(a.snapshot_json(), b.snapshot_json());
        prop_assert_eq!(a.export_chrome_trace(), b.export_chrome_trace());
        prop_assert_eq!(a.export_prometheus(), b.export_prometheus());
    }

    #[test]
    fn trace_timestamps_strictly_increase(advances in proptest::collection::vec(0u64..1_000_000, 1..50)) {
        let r = Recorder::with_timeline();
        for (i, &adv) in advances.iter().enumerate() {
            let scope = r.open("span", &[("i", i as u64)]);
            r.trace_advance(adv);
            drop(scope);
        }
        let events = r.trace_events();
        prop_assert_eq!(events.len(), advances.len() * 2);
        for w in events.windows(2) {
            prop_assert!(w[0].ts_ns < w[1].ts_ns);
        }
        // Begin/end alternate and nest correctly for a flat span sequence.
        for (i, e) in events.iter().enumerate() {
            let expected = if i % 2 == 0 { TracePhase::Begin } else { TracePhase::End };
            prop_assert_eq!(e.phase, expected);
        }
    }
}
