//! Facts about the machine the run happened on, so a reader can tell
//! machine noise from a regression.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one canary pass: 30 to 50 ms on the 2.1 GHz Xeon the
/// baseline was taken on.
const CANARY_ITERS: u64 = 20_000_000;
const CANARY_PASSES: usize = 5;

/// Times a fixed dependent multiply-add chain that touches no memory and
/// calls nothing in the program under test; the fastest of five passes, so
/// that a preempted pass does not read as a slower machine. Run just
/// before the first timed request and after the last: if the two disagree
/// the machine changed speed while the run measured. (Not before set-up: a
/// process that starts on an idle VM runs its first second slower, which
/// would flag every run.)
pub fn canary_ms() -> f64 {
    (0..CANARY_PASSES)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for i in 0..CANARY_ITERS {
                x = black_box(x)
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Relative disagreement of the two canary timings, in permille.
pub fn drift_permille(before_ms: f64, after_ms: f64) -> f64 {
    (after_ms - before_ms).abs() / before_ms.min(after_ms) * 1e3
}

/// Canary drift above this marks the run `"noisy": true`.
pub const NOISY_DRIFT_PERMILLE: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
