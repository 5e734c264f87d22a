#!/usr/bin/env bash
# Local CI: the exact checks the GitHub Actions workflow runs.
# Usage: ./ci.sh [--quick]   (--quick skips the slow release test pass)
set -euo pipefail
cd "$(dirname "$0")"

quick=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Lint gate: the baseline grandfathers nothing today (header-only file),
# so any finding is a new finding and fails; --json must be byte-identical
# across two runs (the lint's own output is held to the replay contract),
# and the SARIF export is produced as a CI artifact.
echo "==> hesgx-lint --workspace (baseline gate + json determinism + sarif)"
cargo run -q -p hesgx-lint --offline -- --workspace --baseline lint-baseline.txt
mkdir -p target/lint
cargo run -q -p hesgx-lint --offline -- --workspace --baseline lint-baseline.txt --json > target/lint/lint.first.json
cargo run -q -p hesgx-lint --offline -- --workspace --baseline lint-baseline.txt --json > target/lint/lint.json
diff target/lint/lint.first.json target/lint/lint.json
rm -f target/lint/lint.first.json
cargo run -q -p hesgx-lint --offline -- --workspace --baseline lint-baseline.txt --sarif > target/lint/lint.sarif
test -s target/lint/lint.sarif

echo "==> cargo build --release"
cargo build --release --offline

if [ "$quick" -eq 0 ]; then
    echo "==> cargo test (release)"
    cargo test --workspace --release --offline -q
else
    echo "==> skipping tests (--quick)"
fi

# Chaos sweep: fixed fault-plan seeds (see crates/bench chaos_sweep::PLAN_SEEDS);
# writes the per-seed FaultReport artifact to target/chaos-report.json.
echo "==> chaos sweep"
cargo run --release -q -p hesgx-bench --offline --bin repro -- chaos_sweep --quick
test -s target/chaos-report.json

# Obs report: deterministic per-layer cost accounting; reconciles the obs
# spans against the pipeline metrics ns-for-ns and writes the snapshot
# artifact to target/obs/obs_report.json.
echo "==> obs report"
cargo run --release -q -p hesgx-bench --offline --bin repro -- obs_report --quick
test -s target/obs/obs_report.json

# Replay gate shared by the experiments below: run `repro <experiment>
# --quick` twice and require every listed artifact to exist, be non-empty,
# and be byte-identical across the two runs.
# Usage: run_twice_diff <experiment> <artifact>...
run_twice_diff() {
    local experiment=$1
    shift
    cargo run --release -q -p hesgx-bench --offline --bin repro -- "$experiment" --quick
    local artifact
    for artifact in "$@"; do
        test -s "$artifact"
        cp "$artifact" "$artifact.first"
    done
    cargo run --release -q -p hesgx-bench --offline --bin repro -- "$experiment" --quick
    for artifact in "$@"; do
        diff "$artifact.first" "$artifact"
        rm -f "$artifact.first"
    done
}

# Trace determinism gate: run the timeline experiment twice and require the
# Perfetto trace and the Prometheus exposition to be byte-identical — the
# virtual-clock contract (DESIGN.md §13) as an executable check.
echo "==> trace determinism (two runs, diffed)"
run_twice_diff trace target/obs/trace-7.json target/obs/trace-7.prom

# Serving-layer determinism gate: the serve_load sweep runs twice and the
# latency report, obs snapshot, and Prometheus export must be byte-identical
# (each run already asserts identity across HE pool sizes 1/2/4 and that
# SIMD batching cuts the modeled per-request HE cost at high arrival rate).
echo "==> serve load (two runs, diffed)"
run_twice_diff serve_load \
    target/bench/BENCH_serve.json target/obs/serve-load.json target/obs/serve-load.prom

# NTT bench determinism gate: wall times live in BENCH_ntt.json (informative,
# never diffed); the replay-stable face — tier checksums, ciphertext-identity
# flags, HE op counts — is BENCH_ntt.deterministic.json, which must be
# byte-identical across two runs. Each run also asserts in-process that the
# lazy/cached kernels are bit-identical to the eager reference and that the
# weight-bank conv kernel matches its raw-weight oracle bit for bit with zero
# per-call weight preparations.
echo "==> ntt bench (two runs, deterministic sections diffed)"
run_twice_diff ntt_bench target/bench/BENCH_ntt.deterministic.json
test -s target/bench/BENCH_ntt.json

# Transciphered-ingress gate: wall times live in BENCH_transcipher.json
# (informative, never diffed); the replay-stable face — upload bytes both
# ways, the reduction ratio, logit-identity and cost-reconciliation flags,
# the modeled ECALL cost — is BENCH_transcipher.deterministic.json, which
# must be byte-identical across two runs. Each run serves the same batch
# through both ingress modes at HE pool sizes 1/2/4.
echo "==> transcipher bench (two runs, deterministic sections diffed)"
run_twice_diff transcipher target/bench/BENCH_transcipher.deterministic.json
test -s target/bench/BENCH_transcipher.json

# Profile gate: the run itself asserts the deterministic face (tree shape,
# call counts, bytes — no nanoseconds) is byte-identical across HE pool
# sizes 1/2/4, that profiled logits match an unprofiled serve bit-for-bit,
# and that the measured/modeled drift ratio stays inside the checked-in
# budget band. The run-twice diff below covers the cross-run half of the
# contract; the flamegraph and hotspot table are wall-face artifacts for
# humans, never diffed.
echo "==> profile (two runs, deterministic sections diffed)"
run_twice_diff profile target/bench/BENCH_profile.deterministic.json
test -s target/bench/BENCH_profile.json
test -s target/bench/profile.collapsed.txt
test -s target/bench/profile_hotspots.txt

echo "ci: all checks passed"
