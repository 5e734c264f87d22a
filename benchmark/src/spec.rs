//! The benchmark's contract as data: workloads, metrics, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is generated from
//! these tables (`--emit-spec`) and a unit test holds the two byte-equal, so
//! the file the driver reads and the names the runner prints cannot drift.

use std::fmt::Write as _;

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 20;
/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2021;
/// Directory that holds the benchmark, relative to the repository root.
pub const PATH: &str = "benchmark";
/// The command the driver runs from the repository root.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig8_fv",
        why: "Paper Fig. 8 EncryptSGX: 28x28 CNN at n=1024, batch-of-10 requests, client FV-encrypts; enclave activation+pool dominate wall (~74%), HE conv ~18%",
    },
    Workload {
        name: "fig8_tc",
        why: "Same pipeline with transciphered ingress: no client public-key encryption, one extra ECALL; the difference to fig8_fv isolates ingress (31 KB vs 25.7 MB upload)",
    },
    Workload {
        name: "purehe_12",
        why: "Pure-HE CryptoNets baseline on a 12x12 model at n=1024: 200 squares + relinearisations dominate and no enclave runs, so enclave-side work must show no change here",
    },
    Workload {
        name: "broker_12",
        why: "Broker with 2 workers replaying a seeded open-loop 3-tenant trace of 1-image requests at n=256: per-request and per-ciphertext fixed costs and batching dominate, not NTT length",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry none.
    pub bound: Option<f64>,
    /// A count (or a figure on the virtual clock) that must repeat exactly:
    /// asserted identical for every timed sample of a run and compared for
    /// equality across runs by `repeat.sh`.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees. Every one is reported on every workload
/// (`--trace 0`) and none is ever zero.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("request_wall_ms_p50", "ms", Better::Lower, 0.25),
    e2e("request_effective_ms_p50", "ms", Better::Lower, 0.25),
    e2e("images_per_s", "1/s", Better::Higher, 0.25),
    // Exact for a given seed; on broker_12 it moves about 3 % with the seed,
    // because a batch uploads one ciphertext map whatever its fill.
    Metric {
        exact: true,
        ..e2e("upload_kib_per_image", "KiB", Better::Lower, 0.15)
    },
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

/// Number of pipeline stages reported by position (`core.stage<i>_*`).
pub const STAGES: usize = 5;

/// Layers are crates. Every one is reported on every workload (`--trace 1`);
/// a layer that does not run on a workload reads 0 there.
pub const PER_LAYER: [Metric; 63] = [
    timed("core.client_ms", "ms"),
    timed("core.he_stage_ms", "ms"),
    timed("core.ecall_stage_wall_ms", "ms"),
    timed("core.ecall_overhead_ms", "ms"),
    timed("core.ingress_ecall_ms", "ms"),
    timed("core.stage0_wall_ms", "ms"),
    timed("core.stage1_wall_ms", "ms"),
    timed("core.stage2_wall_ms", "ms"),
    timed("core.stage3_wall_ms", "ms"),
    timed("core.stage4_wall_ms", "ms"),
    timed("core.stage0_effective_ms", "ms"),
    timed("core.stage1_effective_ms", "ms"),
    timed("core.stage2_effective_ms", "ms"),
    timed("core.stage3_effective_ms", "ms"),
    timed("core.stage4_effective_ms", "ms"),
    timed("core.provision_ms", "ms"),
    timed("core.first_request_ms", "ms"),
    timed("tee.real_ms", "ms"),
    timed("tee.slowdown_ms", "ms"),
    exact("tee.transition_us", "us"),
    exact("tee.copy_ms", "ms"),
    exact("tee.paging_ms", "ms"),
    timed("tee.ecall_empty_ns", "ns"),
    exact("henn.ops.ct_pt_mul", "count"),
    exact("henn.ops.ct_ct_add", "count"),
    exact("henn.ops.ct_pt_add", "count"),
    exact("henn.ops.ct_ct_mul", "count"),
    exact("henn.ops.relin", "count"),
    exact("henn.ops.weight_prep", "count"),
    timed("henn.purehe_encrypt_ms", "ms"),
    timed("henn.purehe_infer_ms", "ms"),
    timed("henn.purehe_decrypt_ms", "ms"),
    timed("bfv.ntt_forward_ns", "ns"),
    timed("bfv.ntt_inverse_ns", "ns"),
    timed("bfv.encrypt_us", "us"),
    timed("bfv.decrypt_us", "us"),
    timed("bfv.mul_plain_ntt_us", "us"),
    timed("bfv.square_us", "us"),
    timed("bfv.relinearize_us", "us"),
    timed("crypto.transcipher_seal_us", "us"),
    timed("crypto.transcipher_open_us", "us"),
    Metric {
        better: Better::Higher,
        ..timed("crypto.rng_fill_mib_s", "MiB/s")
    },
    exact("serve.virt_latency_ms_p50", "ms"),
    exact("serve.virt_latency_ms_p95", "ms"),
    exact("serve.virt_latency_ms_max", "ms"),
    exact("serve.virt_makespan_ms", "ms"),
    exact("serve.batches", "count"),
    Metric {
        better: Better::Higher,
        ..exact("serve.batch_fill_permille", "permille")
    },
    exact("serve.dropped_permille", "permille"),
    exact("serve.he_ns_per_request", "ns"),
    timed("serve.batch_wall_ms_mean", "ms"),
    timed("serve.queue_op_ns", "ns"),
    timed("obs.profiler_overhead_permille", "permille"),
    timed("obs.recorder_overhead_permille", "permille"),
    timed("prof.bfv_self_ms", "ms"),
    timed("prof.henn_self_ms", "ms"),
    timed("prof.ecall_self_ms", "ms"),
    timed("prof.session_self_ms", "ms"),
    timed("prof.serve_self_ms", "ms"),
    timed("prof.par_self_ms", "ms"),
    exact("prof.bfv_ntt_calls", "count"),
    timed("host.canary_ms", "ms"),
    timed("host.canary_drift_permille", "permille"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [");
    for (i, arg) in COMMAND.iter().enumerate() {
        let _ = write!(out, "{}\"{arg}\"", if i > 0 { ", " } else { "" });
    }
    let _ = write!(
        out,
        "],\n  \"paths\": [\"{PATH}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// `--list`: workloads and metrics, one per line.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        let _ = writeln!(out, "workload {} -- {}", w.name, w.why);
    }
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "end_to_end {} {} better={} bound={}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
            if m.exact { " exact" } else { "" }
        );
    }
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "per_layer {} {} better={}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { " exact" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "metric name {}", m.name);
            assert!(unit_ok(m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "bound of {}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = &END_TO_END[0];
        assert!(setup.name == "setup_s" && setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `--list` prints from the same tables `benchmark_json` does, so
    /// byte-equality with the checked-in file pins workloads, metrics,
    /// units, directions and bounds all at once.
    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --emit-spec > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let listed = list();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(listed.contains(&format!(" {name} ")), "--list omits {name}");
        }
    }

    /// The `[profile.release]` table of a manifest, as sorted `key = value`
    /// lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().replace(' ', ""))
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    /// A later change to the root profile must fail loudly here instead of
    /// the benchmark silently measuring a different build.
    #[test]
    fn release_profile_equals_the_roots() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let own = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let root = std::fs::read_to_string(dir.join("../Cargo.toml")).unwrap();
        let root_profile = release_profile(&root);
        assert!(
            !root_profile.is_empty(),
            "root manifest has a release profile"
        );
        assert_eq!(release_profile(&own), root_profile);
    }
}
