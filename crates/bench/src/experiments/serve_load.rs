//! `serve_load` — latency under multi-tenant load, batched vs unbatched
//! (not in the paper; the serving-layer consequence of its §V batching
//! design).
//!
//! Sweeps the offered arrival rate of a seeded open-loop trace through two
//! brokers that differ in exactly one knob: cross-request SIMD batching on
//! (`max_batch` = 8) versus off (`max_batch` = 1). Everything runs on the
//! virtual clock — modeled HE evaluator costs plus modeled enclave terms —
//! so every number printed or written here is a pure function of the seed
//! and replays byte-identically, which CI checks by running the experiment
//! twice and diffing the artifacts.
//!
//! The claim under test: a SIMD batch's evaluator cost does not grow with
//! its fill, so at high arrival rates (where the queue actually fills and
//! batches pack) the modeled per-request HE cost of the batched broker
//! drops well below the unbatched one, and tail latency follows.
//!
//! Artifacts: `target/obs/serve-load.json` / `.prom` (observability
//! snapshot and Prometheus export of the high-rate batched run) and
//! `target/bench/BENCH_serve.json` (the sweep table, integers only).

use super::chaos_sweep::{sweep_model, sweep_params};
use super::{header, RunConfig};
use hesgx_core::request::Ingress;
use hesgx_obs::Recorder;
use hesgx_serve::{Broker, BrokerConfig, HeCostModel, LoadReport, LoadSpec, LoadTrace};
use std::fmt::Write as _;

/// Broker seed: one key domain for the whole sweep.
const SEED: u64 = 2021;
/// HE worker-pool sizes the byte-identity check replays at.
const POOLS: [usize; 3] = [1, 2, 4];

/// One broker configuration's results at one arrival rate.
struct PointStats {
    /// Requests admitted past the bounded queue.
    admitted: usize,
    /// Requests completed (exact + degraded).
    completed: usize,
    /// Requests dropped (backpressure + deadline + oversize).
    dropped: usize,
    /// Mean images per dispatched batch, permille.
    fill_permille: u64,
    /// Modeled HE evaluator cost per completed request (the amortization
    /// headline).
    he_ns_per_request: u64,
    /// Median latency on the virtual clock.
    p50_ns: u64,
    /// Tail latency on the virtual clock.
    p99_ns: u64,
}

impl PointStats {
    fn from_report(report: &LoadReport) -> PointStats {
        PointStats {
            admitted: report.admitted,
            completed: report.completed(),
            dropped: report.dropped_queue_full + report.dropped_oversize + report.dropped_deadline,
            fill_permille: report.mean_fill_permille(),
            he_ns_per_request: report.he_ns_per_request(),
            p50_ns: report.latency.p50_ns,
            p99_ns: report.latency.p99_ns,
        }
    }

    /// The artifact row.
    fn json(&self) -> String {
        format!(
            "{{\"admitted\":{},\"completed\":{},\"dropped\":{},\"fill_permille\":{},\"he_ns_per_request\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            self.admitted,
            self.completed,
            self.dropped,
            self.fill_permille,
            self.he_ns_per_request,
            self.p50_ns,
            self.p99_ns
        )
    }
}

/// One arrival-rate point of the sweep.
struct ServeLoadPoint {
    /// Mean inter-arrival gap of the trace (offered rate = 1e9 / gap).
    mean_gap_ns: u64,
    /// The batching broker (`max_batch` = 8).
    batched: PointStats,
    /// The control broker (`max_batch` = 1).
    unbatched: PointStats,
}

fn broker(max_batch: usize, he_threads: usize, quick: bool, recorder: Recorder) -> Broker {
    Broker::new(
        BrokerConfig::new()
            .workers(2)
            .max_batch(max_batch)
            .queue_cap(64),
        sweep_model(quick),
        sweep_params(&sweep_model(quick)).0,
        SEED,
        he_threads,
        recorder,
    )
    .expect("serve_load broker provisions on the deterministic platform")
}

/// A batching broker with ingress priced at `he_costs` — WAN rates in the
/// bandwidth-constrained-client scenario.
fn wan_broker(quick: bool, he_costs: HeCostModel) -> Broker {
    Broker::new(
        BrokerConfig::new()
            .workers(2)
            .max_batch(8)
            .queue_cap(64)
            .he_costs(he_costs),
        sweep_model(quick),
        sweep_params(&sweep_model(quick)).0,
        SEED,
        2,
        Recorder::disabled(),
    )
    .expect("serve_load WAN broker provisions on the deterministic platform")
}

/// The same trace with every request switched to transciphered ingress.
fn transciphered(trace: &LoadTrace) -> LoadTrace {
    let mut wan = trace.clone();
    for arrival in &mut wan.arrivals {
        arrival.request = arrival.request.clone().ingress(Ingress::Transciphered);
    }
    wan
}

fn spec(quick: bool, mean_gap_ns: u64, requests: usize) -> LoadSpec {
    let model = sweep_model(quick);
    let mut spec = LoadSpec::new(SEED);
    spec.requests = requests;
    spec.mean_gap_ns = mean_gap_ns;
    spec.tenants = 3;
    spec.image_len = model.in_side * model.in_side;
    spec
}

/// Runs the sweep, prints the latency-vs-load table, writes the artifacts,
/// and asserts that the high-rate batched report replays byte-identically at
/// every HE pool size and that batching cuts its per-request HE cost.
pub fn serve_load(cfg: RunConfig) {
    header("SERVE LOAD: multi-tenant latency under load, SIMD batching on/off (not in the paper)");
    let requests = if cfg.quick { 24 } else { 48 };

    // Calibrate the rate axis to the modeled service time: a one-request
    // trace measures the single-batch service cost S, then the sweep offers
    // arrivals at gaps of 4S (idle), S (saturated), and S/4 (overloaded).
    let calibration = broker(8, 2, cfg.quick, Recorder::disabled())
        .run(&LoadTrace::generate(&spec(cfg.quick, 1, 1)));
    let service_ns = calibration.total_service_ns.max(4);
    println!("calibrated single-request modeled service time: {service_ns} ns");
    let gaps = [
        service_ns.saturating_mul(4),
        service_ns,
        (service_ns / 4).max(1),
    ];

    println!();
    println!(
        "{:>14}  {:>9}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}",
        "gap (ns)", "mode", "done/drop", "fill (‰)", "HE ns/req", "p50 (ns)", "p99 (ns)"
    );
    let mut points = Vec::new();
    for &gap in &gaps {
        let trace = LoadTrace::generate(&spec(cfg.quick, gap, requests));
        let batched =
            PointStats::from_report(&broker(8, 2, cfg.quick, Recorder::disabled()).run(&trace));
        let unbatched =
            PointStats::from_report(&broker(1, 2, cfg.quick, Recorder::disabled()).run(&trace));
        for (mode, s) in [("batched", &batched), ("unbatched", &unbatched)] {
            println!(
                "{:>14}  {:>9}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}",
                gap,
                mode,
                format!("{}/{}", s.completed, s.dropped),
                s.fill_permille,
                s.he_ns_per_request,
                s.p50_ns,
                s.p99_ns
            );
        }
        points.push(ServeLoadPoint {
            mean_gap_ns: gap,
            batched,
            unbatched,
        });
    }

    let high = points.last().expect("sweep has points");
    let batching_amortizes_he = high.batched.he_ns_per_request < high.unbatched.he_ns_per_request;
    let batching_helps_tail = high.batched.p99_ns <= high.unbatched.p99_ns;
    println!();
    println!(
        "high-rate HE cost per request: batched {} ns vs unbatched {} ns ({})",
        high.batched.he_ns_per_request,
        high.unbatched.he_ns_per_request,
        if batching_amortizes_he {
            "SIMD batching amortizes"
        } else {
            "NO amortization — check batch fill"
        }
    );

    // Byte-identity across HE pool sizes: the high-rate batched replay must
    // export the same report and observability bytes at pools 1/2/4.
    let high_trace = LoadTrace::generate(&spec(cfg.quick, gaps[2], requests));
    let replays: Vec<(String, String, String)> = POOLS
        .iter()
        .map(|&threads| {
            let recorder = Recorder::enabled();
            let report = broker(8, threads, cfg.quick, recorder.clone()).run(&high_trace);
            (
                report.to_json(),
                recorder.snapshot_json(),
                recorder.export_prometheus(),
            )
        })
        .collect();
    let pool_identical = replays.iter().all(|r| r == &replays[0]);
    println!(
        "byte-identity across HE pools {POOLS:?}: {}",
        if pool_identical { "ok" } else { "DIVERGED" }
    );

    // WAN ingress scenario (ROADMAP item 2 follow-on): replay the
    // saturated trace with ingress priced at WAN rates, once with FV
    // ciphertext uploads and once transciphered, and solve for the
    // per-byte price where the modes cross over.
    // 80 ns per byte (~100 Mbit/s): the megabyte FV upload dominates.
    let wan = HeCostModel {
        ingress_byte_ns: 80,
        ..HeCostModel::paper()
    };
    let wan_trace = LoadTrace::generate(&spec(cfg.quick, gaps[1], requests));
    let mut wan_fv_report = wan_broker(cfg.quick, wan).run(&wan_trace);
    let mut wan_tc_report = wan_broker(cfg.quick, wan).run(&transciphered(&wan_trace));
    let wan_crossover_byte_ns =
        LoadReport::ingress_crossover_byte_ns(&wan_fv_report, &wan_tc_report, wan.ingress_byte_ns);
    wan_fv_report.crossover_byte_ns = wan_crossover_byte_ns;
    wan_tc_report.crossover_byte_ns = wan_crossover_byte_ns;
    let wan_fv = PointStats::from_report(&wan_fv_report);
    let wan_transciphered = PointStats::from_report(&wan_tc_report);
    let transcipher_wins_at_wan = wan_tc_report.latency.mean_ns < wan_fv_report.latency.mean_ns;
    println!();
    println!(
        "WAN ingress ({} ns/B): FV mean latency {} ns ({} B up) vs transciphered {} ns ({} B up)",
        wan.ingress_byte_ns,
        wan_fv_report.latency.mean_ns,
        wan_fv_report.total_upload_bytes,
        wan_tc_report.latency.mean_ns,
        wan_tc_report.total_upload_bytes,
    );
    println!(
        "ingress price crossover: transciphering wins above {wan_crossover_byte_ns} ns/B ({})",
        if transcipher_wins_at_wan {
            "WAN is past the crossover — transciphered ingress wins"
        } else {
            "WAN is below the crossover — FV upload still fine"
        }
    );

    // Artifacts: obs snapshot + Prometheus export of the high-rate batched
    // run, and the sweep table for CI to archive and diff.
    if let Some(path) = crate::write_obs_file("serve-load.json", &replays[0].1) {
        println!("obs snapshot written to {}", path.display());
    }
    if let Some(path) = crate::write_obs_file("serve-load.prom", &replays[0].2) {
        println!("prometheus export written to {}", path.display());
    }
    let mut json = String::from("{\"experiment\":\"serve_load\",");
    let _ = write!(
        json,
        "\"seed\":{SEED},\"requests\":{requests},\"calibrated_service_ns\":{service_ns},\"points\":["
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"mean_gap_ns\":{},\"batched\":{},\"unbatched\":{}}}",
            p.mean_gap_ns,
            p.batched.json(),
            p.unbatched.json()
        );
    }
    let _ = write!(
        json,
        "],\"wan\":{{\"ingress_byte_ns\":{},\"fv\":{},\"transciphered\":{},\"crossover_byte_ns\":{wan_crossover_byte_ns},\"transcipher_wins\":{transcipher_wins_at_wan}}},",
        wan.ingress_byte_ns,
        wan_fv.json(),
        wan_transciphered.json()
    );
    let _ = write!(
        json,
        "\"batching_amortizes_he\":{batching_amortizes_he},\"batching_helps_tail\":{batching_helps_tail},\"pool_identical\":{pool_identical}}}"
    );
    if let Some(path) = crate::write_bench_file("BENCH_serve.json", &json) {
        println!("bench table written to {}", path.display());
    }

    // Hard gates (after the artifacts, so a failure leaves them on disk for
    // debugging). `batching_helps_tail` and `transcipher_wins` are shape
    // outcomes a pricing change can flip: reported, not asserted.
    assert!(
        pool_identical,
        "the high-rate batched replay diverged across HE pools {POOLS:?}"
    );
    assert!(
        batching_amortizes_he,
        "SIMD batching did not cut the high-rate per-request HE cost"
    );
}
