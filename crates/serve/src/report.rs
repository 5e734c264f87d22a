//! The broker's load report: queue/latency/batching accounting with a
//! byte-stable JSON encoding.
//!
//! Every figure is an integer on the virtual clock (nanoseconds, counts,
//! permille ratios) — no floats, no wall time — so a seeded load replay
//! renders the identical report byte-for-byte at every HE worker-pool
//! size, which ci.sh enforces by running the experiment twice and diffing.

use hesgx_core::request::{TenantId, VirtualNs};
use hesgx_core::session::Served;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-request outcome collected at dispatch time.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Trace-wide request ordinal.
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: TenantId,
    /// Virtual arrival time.
    pub arrived: VirtualNs,
    /// Virtual time the batch containing it was dispatched.
    pub dispatched: VirtualNs,
    /// Virtual completion time (dispatch + modeled batch service time).
    pub completed: VirtualNs,
    /// Images in the batch this request rode in (its amortization factor).
    pub batch_fill: usize,
    /// Exact or degraded service.
    pub served: Served,
    /// One logit row per image of the request.
    pub logits: Vec<Vec<i64>>,
}

impl RequestOutcome {
    /// Queueing + service latency on the virtual clock.
    pub fn latency_ns(&self) -> VirtualNs {
        self.completed.saturating_sub(self.arrived)
    }
}

/// Per-tenant accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests that arrived for this tenant.
    pub offered: usize,
    /// Requests completed (exact or degraded).
    pub served: usize,
    /// Requests dropped (queue-full, oversize, or deadline).
    pub dropped: usize,
}

/// Latency percentiles over completed requests (virtual-clock ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Median.
    pub p50_ns: VirtualNs,
    /// 95th percentile.
    pub p95_ns: VirtualNs,
    /// 99th percentile.
    pub p99_ns: VirtualNs,
    /// Maximum.
    pub max_ns: VirtualNs,
    /// Integer mean.
    pub mean_ns: VirtualNs,
}

impl LatencyStats {
    /// Nearest-rank percentiles over the (unsorted) latency samples.
    pub fn from_latencies(latencies: &[VirtualNs]) -> LatencyStats {
        if latencies.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let rank = |p: u64| sorted[((p * (sorted.len() as u64 - 1)) / 100) as usize];
        let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
        LatencyStats {
            p50_ns: rank(50),
            p95_ns: rank(95),
            p99_ns: rank(99),
            max_ns: rank(100),
            mean_ns: (sum / sorted.len() as u128) as VirtualNs,
        }
    }
}

/// The full report of one load replay.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests the trace offered.
    pub offered: usize,
    /// Requests admitted past the bounded queue.
    pub admitted: usize,
    /// Requests completed exactly.
    pub completed_exact: usize,
    /// Requests completed by the degraded fallback.
    pub completed_degraded: usize,
    /// Requests that failed: malformed ones, refused alone, and the members
    /// of a batch the worker session could not serve after its own
    /// recovery ladder.
    pub failed: usize,
    /// Arrivals dropped because the queue was full (backpressure).
    pub dropped_queue_full: usize,
    /// Arrivals dropped because one request exceeded the batch cap.
    pub dropped_oversize: usize,
    /// Admitted requests dropped at dispatch because their deadline passed.
    pub dropped_deadline: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Images carried across all batches.
    pub batched_images: usize,
    /// Virtual time of the last completion.
    pub makespan_ns: VirtualNs,
    /// Total modeled service time across batches (HE evaluator + modeled
    /// enclave terms).
    pub total_service_ns: VirtualNs,
    /// The HE evaluator share of `total_service_ns`.
    pub total_he_ns: VirtualNs,
    /// Client upload bytes carried by all dispatched batches (FV
    /// ciphertexts or transciphered stream payloads) — the column the
    /// transcipher experiment compares across ingress modes.
    pub total_upload_bytes: u64,
    /// Latency percentiles over completed requests.
    pub latency: LatencyStats,
    /// FV-vs-transciphered ingress crossover: the per-byte ingress price
    /// (virtual ns/byte) above which transciphered ingress yields lower
    /// modeled service time than FV-ciphertext upload for this traffic.
    /// Zero when the run did not compute a crossover (single-ingress runs).
    /// Set from a paired run via [`LoadReport::ingress_crossover_byte_ns`].
    pub crossover_byte_ns: u64,
    /// Per-tenant accounting, keyed by tenant ID.
    pub per_tenant: BTreeMap<TenantId, TenantStats>,
    /// Per-request outcomes in completion order (not serialized).
    pub outcomes: Vec<RequestOutcome>,
}

impl LoadReport {
    /// Completed requests, exact + degraded.
    pub fn completed(&self) -> usize {
        self.completed_exact + self.completed_degraded
    }

    /// Mean images per dispatched batch, in permille (integer — stays
    /// byte-stable in the JSON encoding).
    pub fn mean_fill_permille(&self) -> u64 {
        if self.batches == 0 {
            return 0;
        }
        (self.batched_images as u64 * 1000) / self.batches as u64
    }

    /// Modeled HE evaluator cost per completed request — the amortization
    /// headline: falls as batches fill, because the evaluator cost of a
    /// SIMD batch does not grow with its fill.
    pub fn he_ns_per_request(&self) -> VirtualNs {
        let done = self.completed();
        if done == 0 {
            return 0;
        }
        self.total_he_ns / done as u64
    }

    /// The FV-vs-transciphered ingress price crossover, from a paired run
    /// of the same trace under both ingress modes at the same priced rate
    /// `priced_byte_ns` (the rate both reports' `total_service_ns` already
    /// include).
    ///
    /// Per completed request, modeled service time at an arbitrary ingress
    /// price `r` is `base + r·bytes`, where `base` strips the ingress term
    /// actually charged: `(total_service_ns − priced·total_upload_bytes) /
    /// completed`. Transciphering pays a higher base (the in-enclave
    /// re-encryption ECALL) to ship fewer bytes, so the crossover price is
    /// `(base_tc − base_fv) / (bytes_fv − bytes_tc)` per request — above
    /// it, the WAN is slow enough that transciphered ingress wins. Returns
    /// 0 when either run completed nothing or the byte ordering is not
    /// FV > transciphered (no crossover exists).
    pub fn ingress_crossover_byte_ns(fv: &LoadReport, tc: &LoadReport, priced_byte_ns: u64) -> u64 {
        let (fv_done, tc_done) = (fv.completed() as u128, tc.completed() as u128);
        if fv_done == 0 || tc_done == 0 {
            return 0;
        }
        let base = |r: &LoadReport, done: u128| -> u128 {
            let ingress =
                u128::from(priced_byte_ns).saturating_mul(u128::from(r.total_upload_bytes));
            u128::from(r.total_service_ns).saturating_sub(ingress) / done
        };
        let bytes_per = |r: &LoadReport, done: u128| u128::from(r.total_upload_bytes) / done;
        let (base_fv, base_tc) = (base(fv, fv_done), base(tc, tc_done));
        let (bytes_fv, bytes_tc) = (bytes_per(fv, fv_done), bytes_per(tc, tc_done));
        if bytes_fv <= bytes_tc || base_tc <= base_fv {
            return 0;
        }
        ((base_tc - base_fv).div_ceil(bytes_fv - bytes_tc)) as u64
    }

    /// Deterministic JSON encoding: fixed field order, integers only,
    /// tenants sorted by ID. Per-request outcomes are summarized by the
    /// aggregate fields rather than serialized.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let mut field = |name: &str, value: u64| {
            let _ = write!(out, "\"{name}\":{value},");
        };
        field("offered", self.offered as u64);
        field("admitted", self.admitted as u64);
        field("completed_exact", self.completed_exact as u64);
        field("completed_degraded", self.completed_degraded as u64);
        field("failed", self.failed as u64);
        field("dropped_queue_full", self.dropped_queue_full as u64);
        field("dropped_oversize", self.dropped_oversize as u64);
        field("dropped_deadline", self.dropped_deadline as u64);
        field("batches", self.batches as u64);
        field("batched_images", self.batched_images as u64);
        field("mean_fill_permille", self.mean_fill_permille());
        field("makespan_ns", self.makespan_ns);
        field("total_service_ns", self.total_service_ns);
        field("total_he_ns", self.total_he_ns);
        field("total_upload_bytes", self.total_upload_bytes);
        field("he_ns_per_request", self.he_ns_per_request());
        field("latency_p50_ns", self.latency.p50_ns);
        field("latency_p95_ns", self.latency.p95_ns);
        field("latency_p99_ns", self.latency.p99_ns);
        field("latency_max_ns", self.latency.max_ns);
        field("latency_mean_ns", self.latency.mean_ns);
        field("crossover_byte_ns", self.crossover_byte_ns);
        out.push_str("\"tenants\":[");
        for (i, (tenant, stats)) in self.per_tenant.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tenant\":{tenant},\"offered\":{},\"served\":{},\"dropped\":{}}}",
                stats.offered, stats.served, stats.dropped
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        let stats = LatencyStats::from_latencies(&lat);
        assert_eq!(stats.p50_ns, 50);
        assert_eq!(stats.p95_ns, 95);
        assert_eq!(stats.p99_ns, 99);
        assert_eq!(stats.max_ns, 100);
        assert_eq!(stats.mean_ns, 50);
    }

    #[test]
    fn empty_latencies_are_all_zero() {
        assert_eq!(LatencyStats::from_latencies(&[]), LatencyStats::default());
    }

    #[test]
    fn crossover_price_solves_the_linear_model() {
        // FV: 10 requests, 1 MB/request, base 2 ms/request.
        // TC: 10 requests, 5 KB/request, base 3 ms/request.
        // Crossover: 1 ms over 995 KB ≈ 1005 ns/byte, rounded up.
        let priced = 2u64;
        let fv = LoadReport {
            completed_exact: 10,
            total_upload_bytes: 10_000_000,
            total_service_ns: 10 * 2_000_000 + priced * 10_000_000,
            ..LoadReport::default()
        };
        let tc = LoadReport {
            completed_exact: 10,
            total_upload_bytes: 50_000,
            total_service_ns: 10 * 3_000_000 + priced * 50_000,
            ..LoadReport::default()
        };
        let r = LoadReport::ingress_crossover_byte_ns(&fv, &tc, priced);
        assert_eq!(r, 1_000_000u64.div_ceil(995_000));
        // Degenerate inputs yield no crossover.
        assert_eq!(LoadReport::ingress_crossover_byte_ns(&tc, &fv, priced), 0);
        assert_eq!(
            LoadReport::ingress_crossover_byte_ns(&fv, &LoadReport::default(), priced),
            0
        );
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let mut report = LoadReport {
            offered: 10,
            admitted: 9,
            completed_exact: 8,
            batches: 4,
            batched_images: 9,
            total_he_ns: 4000,
            ..LoadReport::default()
        };
        report.per_tenant.insert(
            2,
            TenantStats {
                offered: 4,
                served: 4,
                dropped: 0,
            },
        );
        report.per_tenant.insert(
            0,
            TenantStats {
                offered: 6,
                served: 4,
                dropped: 1,
            },
        );
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"mean_fill_permille\":2250"));
        assert!(a.contains("\"he_ns_per_request\":500"));
        // Tenants in sorted order.
        assert!(a.find("\"tenant\":0").unwrap() < a.find("\"tenant\":2").unwrap());
        assert!(!a.contains('.'), "integers only: {a}");
    }
}
