//! `profile` — wall-clock profiling with modeled-vs-measured drift gating
//! (DESIGN.md §18; the observability counterpart to the virtual clock).
//!
//! One inference batch is served per HE pool size (1/2/4) on a session with
//! both the deterministic recorder *and* the wall-clock profiler installed.
//! Four claims are asserted and written to the artifacts:
//!
//! 1. **Deterministic face stability** — `Profiler::deterministic_json()`
//!    (tree shape, call counts, attributed bytes; no nanoseconds) is
//!    byte-identical across all three pool sizes. CI additionally runs the
//!    experiment twice and byte-diffs the file across runs.
//! 2. **Logit bit-identity** — the profiled serves produce logits
//!    byte-identical to an unprofiled serve from the same seed: installing
//!    the profiler observes the pipeline without perturbing it.
//! 3. **Drift budget** — joining the profiler's measured wall nanoseconds
//!    against the recorder's modeled `SpanCost` per stage yields a
//!    top-level measured/modeled ratio inside a generous checked-in band,
//!    so the cost model cannot silently rot away from reality.
//! 4. **Stack attribution** — the hotspot table names the top call paths
//!    with full `;`-joined stacks (the flamegraph export carries the same
//!    tree in collapsed-stack form).
//!
//! Artifacts: `target/bench/BENCH_profile.json` (wall times and the drift
//! join — informative, not replay-stable),
//! `target/bench/BENCH_profile.deterministic.json` (the replay-stable face;
//! CI runs the experiment twice and diffs it), plus
//! `target/bench/profile.collapsed.txt` (flamegraph input) and
//! `target/bench/profile_hotspots.txt` (the rendered table).

use super::{header, RunConfig};
use hesgx_core::request::InferRequest;
use hesgx_core::session::{ParamsPreset, Session, SessionBuilder};
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_obs::{Profiler, Recorder};
use hesgx_tee::enclave::Platform;
use hesgx_tee::wall::WallTimer;
use std::fmt::Write as _;

/// Session seed: profiled and unprofiled serves provision from the same
/// seed so every RNG stream lines up and logits compare bit-for-bit.
const SEED: u64 = 1897;

/// HE worker-pool sizes the deterministic-face identity is checked at.
const POOLS: [usize; 3] = [1, 2, 4];

/// Checked-in drift budget band, in permille of measured/modeled wall time
/// (1000 = the model predicts wall time exactly). Deliberately generous:
/// the modeled figures are calibrated to the paper's SEAL-on-SGX hardware,
/// not to this container, so only order-of-magnitude rot should trip it —
/// a stage silently becoming 100x slower than modeled, or the model
/// charging time for work that no longer happens.
const DRIFT_BAND_PERMILLE: (u64, u64) = (1, 20_000);

fn build_session(
    preset: ParamsPreset,
    threads: usize,
    model: &QuantizedCnn,
) -> (Session, Recorder) {
    let rec = Recorder::enabled();
    let session = SessionBuilder::new()
        .params(preset)
        .threads(threads)
        .seed(SEED)
        .recorder(rec.clone())
        .build(Platform::new(1897), model.clone())
        .expect("profile bench session provisions");
    (session, rec)
}

/// One profiled serve on a fresh session (fresh session per serve keeps
/// every RNG stream at its origin, so logits compare bit-for-bit across
/// pool sizes and against the unprofiled run). The profiler is installed
/// as this thread's ambient one around provisioning and the serve.
fn serve_once(
    preset: ParamsPreset,
    threads: usize,
    model: &QuantizedCnn,
    images: &[Vec<i64>],
    profiler: Profiler,
) -> (Vec<Vec<i64>>, Recorder, u64) {
    let _installed = profiler.install();
    let (session, rec) = build_session(preset, threads, model);
    let timer = WallTimer::start();
    let response = session
        .serve(InferRequest::batch(images.to_vec()))
        .expect("profile bench serve succeeds");
    (response.logits, rec, timer.elapsed_ns())
}

/// Runs the profiling experiment, writes all four artifacts, and asserts
/// the four claims.
pub fn profile(cfg: RunConfig) {
    header("PROFILE: wall-clock hotspots, flamegraph export, drift gating (DESIGN.md §18)");
    let (preset, degree) = if cfg.quick {
        (ParamsPreset::Small, 256)
    } else {
        (ParamsPreset::Paper, crate::PAPER_POLY_DEGREE)
    };
    let m = crate::formula_model(cfg.quick);
    let pixels = m.in_side * m.in_side;
    let images: Vec<Vec<i64>> = (0..crate::PAPER_BATCH_SIZE)
        .map(|b| {
            (0..pixels)
                .map(|p| ((p * 5 + b * 11) % 16) as i64)
                .collect()
        })
        .collect();
    println!(
        "batch of {} {}x{} images at poly degree {degree}; fresh session per \
         serve, seed {SEED}",
        images.len(),
        m.in_side,
        m.in_side,
    );

    // Profiled serves, one per pool size. The deterministic face must not
    // depend on the pool (worker roots merge), the logits must not depend
    // on the profiler at all.
    println!(
        "\n{:>5} {:>16} {:>14} {:>10}",
        "pool", "wall (ns)", "det bytes", "logits"
    );
    let mut reference: Option<Vec<Vec<i64>>> = None;
    let mut det_faces: Vec<String> = Vec::new();
    let mut rows: Vec<(usize, u64)> = Vec::new();
    let mut last: Option<(Profiler, Recorder)> = None;
    let mut logits_match = true;
    for &threads in &POOLS {
        let prof = Profiler::enabled();
        let (logits, rec, wall_ns) = serve_once(preset, threads, &m, &images, prof.clone());
        let matches = match &reference {
            None => {
                reference = Some(logits.clone());
                true
            }
            Some(reference) => reference == &logits,
        };
        logits_match &= matches;
        let det = prof.deterministic_json();
        println!(
            "{:>5} {:>16} {:>14} {:>10}",
            threads,
            wall_ns,
            det.len(),
            if matches { "identical" } else { "DIVERGED" }
        );
        rows.push((threads, wall_ns));
        det_faces.push(det);
        last = Some((prof, rec));
    }
    let pool_identical = det_faces.windows(2).all(|w| w[0] == w[1]);

    // Unprofiled control: same seed, disabled profiler — the profiled
    // pipeline must be observationally identical.
    let (plain_logits, _, _) = serve_once(preset, 2, &m, &images, Profiler::disabled());
    logits_match &= reference.as_ref() == Some(&plain_logits);

    let (prof, rec) = last.expect("POOLS is non-empty");
    let hotspots = prof.hotspots();
    let top_paths: Vec<String> = hotspots.iter().take(3).map(|h| h.path.clone()).collect();
    println!(
        "\nhotspots (pool {}, top 10 by self time):",
        POOLS[POOLS.len() - 1]
    );
    print!("{}", prof.hotspot_table(10));
    println!("top-3 stacks:");
    for (i, path) in top_paths.iter().enumerate() {
        println!("  {}. {path}", i + 1);
    }

    // Drift join: measured wall ns (profiler) vs modeled SpanCost ns
    // (recorder), per stage name, with a checked-in budget band on the
    // headline ratio.
    let drift = prof.drift_report(&rec);
    let ratio = drift.top_ratio_permille();
    let (lo, hi) = DRIFT_BAND_PERMILLE;
    let within = (lo..=hi).contains(&ratio);
    println!("\ndrift report (measured wall vs modeled virtual clock):");
    print!("{}", drift.render_table());
    println!(
        "drift budget: {ratio} permille within [{lo}, {hi}] -> {}",
        if within { "ok" } else { "EXCEEDED" }
    );

    let stages_joined = drift.entries.len();
    println!(
        "deterministic face across pools {POOLS:?}: {}; logits vs unprofiled: {}",
        if pool_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        if logits_match {
            "identical"
        } else {
            "DIVERGED"
        }
    );

    // Full artifact: wall times and the drift join (informative, never
    // byte-diffed).
    let mut json = String::from("{\"experiment\":\"profile\",\"runs\":[");
    for (i, (pool, wall)) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "{{\"pool\":{pool},\"wall_ns\":{wall}}}");
    }
    let _ = write!(
        json,
        "],\"drift_report\":{},\"drift_band_permille\":[{lo},{hi}],\
         \"drift_within_band\":{},\"wall\":{}}}",
        drift.to_json(),
        within,
        prof.wall_json()
    );
    if let Some(path) = crate::write_bench_file("BENCH_profile.json", &json) {
        println!("bench table written to {}", path.display());
    }

    // Deterministic artifact: tree shape, call counts, bytes, and the
    // identity flags — a pure function of the seeds. CI runs the experiment
    // twice and byte-diffs this file.
    let det = format!(
        "{{\"experiment\":\"profile\",\"batch\":{},\"pixels\":{pixels},\
         \"pool_identical\":{pool_identical},\"logits_match\":{logits_match},\
         \"stages_joined\":{stages_joined},\"tree\":{}}}",
        images.len(),
        prof.deterministic_json()
    );
    if let Some(path) = crate::write_bench_file("BENCH_profile.deterministic.json", &det) {
        println!("deterministic table written to {}", path.display());
    }
    if let Some(path) = crate::write_bench_file("profile.collapsed.txt", &prof.export_collapsed()) {
        println!("collapsed-stack flamegraph written to {}", path.display());
    }
    if let Some(path) = crate::write_bench_file("profile_hotspots.txt", &prof.hotspot_table(25)) {
        println!("hotspot table written to {}", path.display());
    }

    // Hard gates (after the artifacts, so a failure leaves them on disk
    // for debugging): the acceptance contract of DESIGN.md §18.
    assert!(
        pool_identical,
        "profiler deterministic face diverged across HE pools {POOLS:?}"
    );
    assert!(
        logits_match,
        "profiled logits diverged from the unprofiled serve"
    );
    assert!(
        top_paths.len() >= 3,
        "expected at least 3 hotspot stacks, got {top_paths:?}"
    );
    assert!(
        stages_joined > 0,
        "drift report joined no stages — profiler/recorder names diverged"
    );
    // A request and the key ceremony are one scope each: a frame and a
    // span under one name, so the model answers for a whole request too.
    for stage in ["session.request", "session.provision"] {
        assert!(
            drift.entries.iter().any(|entry| entry.stage == stage),
            "drift report did not join {stage} — it needs a frame and a span"
        );
    }
    assert!(
        within,
        "drift budget exceeded: {ratio} permille outside [{lo}, {hi}]"
    );
}
