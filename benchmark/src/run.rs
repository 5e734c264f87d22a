//! The two kinds of run. The end-to-end run (`--trace 0`) measures what a
//! user sees with profiler and recorder disabled. The traced run
//! (`--trace 1`) prices the layers: values the public API returns, the wall
//! profiler's self times, the cost of observability itself, and the
//! micro-timings. End-to-end numbers are never taken from the traced run.

use crate::report::{json_string, Outcome};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{self, Ready, Runner, Sample};
use crate::{host, micro, spec};
use hesgx_obs::{Profiler, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median. The first one is
/// the cold process and always the slowest, so five leave the median in the
/// middle of four warm ones.
const SETUPS: usize = 5;
/// Every phase measures at least this many units, however slow the machine.
const MIN_SAMPLES: usize = 3;
/// Shares of `--seconds` the traced run gives its three phases.
const PLAIN_SHARE: f64 = 0.4;
const PROFILED_SHARE: f64 = 0.35;
const RECORDED_SHARE: f64 = 0.25;

pub struct Artifacts {
    pub spans: String,
    pub collapsed: String,
    pub wall: String,
}

/// Runs units back to back (a closed loop of one client) for `seconds`.
fn measure(runner: &mut dyn Runner, seconds: f64, profiler: &Profiler) -> Vec<Sample> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || started.elapsed().as_secs_f64() < seconds {
        let _installed = profiler.install();
        samples.push(runner.request());
    }
    samples
}

/// Median per-request milliseconds of `ns_of` over the samples.
fn per_request_ms_p50(samples: &[Sample], ns_of: impl Fn(&Sample) -> u64) -> f64 {
    let per_request: Vec<f64> = samples
        .iter()
        .map(|s| ns_of(s) as f64 / s.requests as f64 / 1e6)
        .collect();
    median(&per_request)
}

#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

impl Counts {
    fn add(&mut self, samples: &[Sample]) {
        self.attempted += samples.iter().map(|s| s.requests).sum::<u64>();
        self.failed += samples.iter().map(|s| s.failed).sum::<u64>();
    }

    /// Sets `workload` up and counts its warm-up unit.
    fn set_up(&mut self, workload: &str, seed: u64, recorder: Recorder) -> Ready {
        let ready = workloads::setup(workload, seed, recorder);
        self.add(std::slice::from_ref(&ready.warmup));
        ready
    }
}

/// The determinism gate on one exact figure: every sample must agree.
fn all_equal(name: &str, values: &[f64], errors: &mut Vec<String>) {
    if values.windows(2).any(|w| w[0] != w[1]) {
        errors.push(format!(
            "{name} must repeat exactly but read {values:?} over the timed samples"
        ));
    }
}

/// Folds the samples' per-layer values: the median of each, after checking
/// that the exact ones repeated exactly.
fn layer_medians(samples: &[Sample], errors: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in samples.iter().flat_map(|s| &s.layer) {
        by_name.entry(name).or_default().push(*value);
    }
    by_name
        .into_iter()
        .map(|(name, values)| {
            let metric = spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} is not in spec::PER_LAYER"));
            if metric.exact {
                all_equal(name, &values, errors);
            }
            (name, median(&values))
        })
        .collect()
}

fn run_info(workload: &str, seed: u64, seconds: f64, trace: bool) -> Vec<(&'static str, String)> {
    vec![
        ("workload", json_string(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("cpu", json_string(&host::cpu_model())),
        ("nproc", host::nproc().to_string()),
        ("he_threads", workloads::HE_THREADS.to_string()),
    ]
}

/// The first sample's children as `[{"name":..,"ms":..}]`: the stage
/// labels behind the positional `core.stage<i>_*` metrics.
fn children_json(sample: &Sample) -> String {
    let parts: Vec<String> = sample
        .children
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ms\":{}}}",
                json_string(&c.name),
                c.dur_ns as f64 / 1e6
            )
        })
        .collect();
    format!("[{}]", parts.join(","))
}

pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut counts = Counts::default();
    let mut errors = Vec::new();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        // Free the previous engine first so two never coexist in the peak.
        drop(ready.take());
        let started = Instant::now();
        ready = Some(counts.set_up(workload, seed, Recorder::disabled()));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("SETUPS is at least 1");

    let canary_before = host::canary_ms();
    let samples = measure(ready.runner.as_mut(), seconds, &Profiler::disabled());
    counts.add(&samples);
    let canary_after = host::canary_ms();

    let images_per_s: Vec<f64> = samples
        .iter()
        .map(|s| s.verified_images as f64 / (s.wall_ns as f64 / 1e9))
        .collect();
    let upload: Vec<f64> = samples
        .iter()
        .map(|s| s.upload_bytes as f64 / s.images as f64 / 1024.0)
        .collect();
    all_equal("upload_kib_per_image", &upload, &mut errors);
    // Checked here too, though only the traced run reports them.
    layer_medians(&samples, &mut errors);

    let walls: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let mut info = run_info(workload, seed, seconds, false);
    info.extend([
        ("samples", samples.len().to_string()),
        ("sample_wall_ms", format!("{walls:?}")),
        ("setup_s_all", format!("{setups:?}")),
        ("canary_ms", format!("[{canary_before},{canary_after}]")),
        ("first_sample", children_json(&samples[0])),
    ]);
    let metrics = BTreeMap::from([
        ("setup_s", median(&setups)),
        (
            "request_wall_ms_p50",
            per_request_ms_p50(&samples, |s| s.wall_ns),
        ),
        (
            "request_effective_ms_p50",
            per_request_ms_p50(&samples, |s| s.wall_ns + s.overhead_ns),
        ),
        ("images_per_s", median(&images_per_s)),
        ("upload_kib_per_image", median(&upload)),
        ("peak_rss_mib", host::peak_rss_mib()),
    ]);
    Outcome {
        metrics,
        attempted: counts.attempted,
        failed: counts.failed,
        errors,
        noisy: host::drift_permille(canary_before, canary_after) > host::NOISY_DRIFT_PERMILLE,
        info,
    }
}

/// Self time per request by layer, from the wall profiler's hotspot table:
/// each call path is attributed to the layer its innermost frame names.
fn profiler_self_times(profiler: &Profiler, requests: f64) -> [(&'static str, f64); 7] {
    let (mut bfv, mut henn, mut ecall, mut session, mut serve, mut par) = (0, 0, 0, 0, 0, 0);
    let mut ntt_calls = 0;
    for hotspot in profiler.hotspots() {
        let frame = hotspot.path.rsplit(';').next().unwrap_or("");
        let layer = match frame.split('.').next().unwrap_or("") {
            "bfv" => &mut bfv,
            "henn" => &mut henn,
            "ecall" | "epc" => &mut ecall,
            "session" | "infer" => &mut session,
            "serve" => &mut serve,
            "par" => &mut par,
            _ => continue,
        };
        *layer += hotspot.self_ns;
        if frame.starts_with("bfv.ntt.") {
            ntt_calls += hotspot.calls;
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6 / requests;
    [
        ("prof.bfv_self_ms", ms(bfv)),
        ("prof.henn_self_ms", ms(henn)),
        ("prof.ecall_self_ms", ms(ecall)),
        ("prof.session_self_ms", ms(session)),
        ("prof.serve_self_ms", ms(serve)),
        ("prof.par_self_ms", ms(par)),
        ("prof.bfv_ntt_calls", ntt_calls as f64 / requests),
    ]
}

fn overhead_permille(observed: &[Sample], plain: &[Sample]) -> f64 {
    let p50 = |samples: &[Sample]| per_request_ms_p50(samples, |s| s.wall_ns);
    (p50(observed) / p50(plain) - 1.0) * 1e3
}

pub fn traced(workload: &str, seed: u64, seconds: f64) -> (Outcome, Artifacts) {
    let mut counts = Counts::default();
    let mut errors = Vec::new();
    // A layer that does not run on this workload reads 0.
    let mut metrics: BTreeMap<&'static str, f64> =
        spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();

    // Phase 1, nothing installed: what the public API returns per request.
    let mut ready = counts.set_up(workload, seed, Recorder::disabled());
    let canary_before = host::canary_ms();
    let plain = measure(
        ready.runner.as_mut(),
        seconds * PLAIN_SHARE,
        &Profiler::disabled(),
    );
    counts.add(&plain);
    metrics.extend(layer_medians(&plain, &mut errors));
    metrics.insert("core.provision_ms", ready.provision_ns as f64 / 1e6);
    metrics.insert("core.first_request_ms", ready.warmup.wall_ns as f64 / 1e6);
    drop(ready);

    // Phase 2, wall profiler installed around every request; the
    // benchmark's own spans are recorded here.
    let profiler = Profiler::enabled();
    let mut spans = SpanLog::new();
    let root = spans.open(None, "workload");
    let setup = spans.open(Some(root), "setup");
    let mut ready = counts.set_up(workload, seed, Recorder::disabled());
    spans.end(setup);
    let profiled = measure(ready.runner.as_mut(), seconds * PROFILED_SHARE, &profiler);
    spans.end(root);
    for (index, sample) in profiled.iter().enumerate() {
        spans.request(root, index, sample);
    }
    counts.add(&profiled);
    drop(ready);
    let profiled_requests: u64 = profiled.iter().map(|s| s.requests).sum();
    metrics.extend(profiler_self_times(&profiler, profiled_requests as f64));
    metrics.insert(
        "obs.profiler_overhead_permille",
        overhead_permille(&profiled, &plain),
    );

    // Phase 3, recorder enabled (today it adds full-map noise probes).
    if workloads::takes_recorder(workload) {
        let mut ready = counts.set_up(workload, seed, Recorder::enabled());
        let recorded = measure(
            ready.runner.as_mut(),
            seconds * RECORDED_SHARE,
            &Profiler::disabled(),
        );
        counts.add(&recorded);
        metrics.insert(
            "obs.recorder_overhead_permille",
            overhead_permille(&recorded, &plain),
        );
    }

    match micro::run(seed) {
        Ok(values) => metrics.extend(values),
        Err(e) => errors.push(e),
    }
    let canary_after = host::canary_ms();
    let drift = host::drift_permille(canary_before, canary_after);
    metrics.insert("host.canary_ms", canary_before.min(canary_after));
    metrics.insert("host.canary_drift_permille", drift);

    let mut info = run_info(workload, seed, seconds, true);
    info.extend([
        ("samples", format!("[{},{}]", plain.len(), profiled.len())),
        ("first_sample", children_json(&plain[0])),
    ]);
    let outcome = Outcome {
        metrics,
        attempted: counts.attempted,
        failed: counts.failed,
        errors,
        noisy: drift > host::NOISY_DRIFT_PERMILLE,
        info,
    };
    let artifacts = Artifacts {
        spans: spans.to_json(),
        collapsed: profiler.export_collapsed(),
        wall: profiler.wall_json(),
    };
    (outcome, artifacts)
}
