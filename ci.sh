#!/usr/bin/env bash
# Local CI, and the one definition of every check: each job of
# .github/workflows/ci.yml calls its step here.
# Usage: ./ci.sh [lint|test|chaos|obs|serve|bench|profile|loc]...   (no argument = all)
set -euo pipefail
cd "$(dirname "$0")"

repro() {
    cargo run --release -q -p hesgx-bench --offline --bin repro -- "$@"
}

# Replay gate: run `repro <experiment> --quick` twice and require every listed
# artifact to exist, be non-empty, and be byte-identical across the two runs.
# Usage: run_twice_diff <experiment> <artifact>...
run_twice_diff() {
    local experiment=$1
    shift
    repro "$experiment" --quick
    local artifact
    for artifact in "$@"; do
        test -s "$artifact"
        cp "$artifact" "$artifact.first"
    done
    repro "$experiment" --quick
    for artifact in "$@"; do
        diff "$artifact.first" "$artifact"
        rm -f "$artifact.first"
    done
}

step_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings

    # A deleted or renamed item must not leave a dangling [`link`] behind.
    echo "==> cargo doc (broken intra-doc links denied)"
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
        cargo doc --workspace --no-deps --offline -q

    # Lint gate: the workspace lints clean, so any finding fails. A finding
    # is silenced only by an inline `hesgx-lint: allow(rule, reason = "...")`
    # marker, and a marker that silences nothing is itself a finding.
    echo "==> hesgx-lint --workspace"
    cargo run -q -p hesgx-lint --offline -- --workspace
}

step_test() {
    # A golden regenerates only by hand, in a commit that says why; inside
    # CI the switch would make the golden tests compare a file with itself.
    if [ -n "${HESGX_UPDATE_GOLDEN+set}" ]; then
        echo "HESGX_UPDATE_GOLDEN is set: refusing to run the tests" >&2
        exit 1
    fi

    echo "==> cargo build --release"
    cargo build --release --offline

    echo "==> cargo test (release)"
    cargo test --workspace --release --offline -q

    # benchmark/ is its own workspace, so the two commands above never compile
    # it; build it here so a PR that removes public API it calls fails CI
    # instead of the benchmark. Read-only use of that directory.
    echo "==> benchmark package builds against the workspace crates"
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
}

# Fixed fault-plan seeds (see crates/bench chaos_sweep::PLAN_SEEDS): the same
# seeds on every run, so the per-seed FaultReport artifact
# target/chaos-report.json holds no wall time and must be byte-identical
# across two runs (and so diffable across commits). Each run asserts that
# every point's logits equal the fault-free baseline and that every point's
# report is byte-stable across two runs of its seed.
step_chaos() {
    echo "==> chaos sweep (two runs, diffed)"
    run_twice_diff chaos_sweep target/chaos-report.json
}

# The virtual-clock contract (DESIGN.md §13) as an executable check: the
# Perfetto trace and the Prometheus exposition must be byte-identical across
# runs (each run already asserts identity across pool sizes). The snapshot's
# identity across pool sizes and its ns-for-ns reconciliation with the
# pipeline metrics are tier-1 tests (crates/core/tests/obs.rs).
step_obs() {
    echo "==> trace determinism (two runs, diffed)"
    run_twice_diff trace target/obs/trace-7.json target/obs/trace-7.prom
}

# The serve_load sweep replays one seeded open-loop trace through the broker
# with SIMD batching on and off; the latency report, obs snapshot, and
# Prometheus export must be byte-identical across runs. Each run asserts
# that the high-rate batched replay exports the same report, snapshot and
# exposition bytes at HE pool sizes 1/2/4, and that batching cuts its
# modeled per-request HE cost below the unbatched control; whether batching
# also helps the tail, and whether transciphered ingress wins at WAN prices,
# are shape outcomes it prints without asserting.
step_serve() {
    echo "==> serve load (two runs, diffed)"
    run_twice_diff serve_load \
        target/bench/BENCH_serve.json target/obs/serve-load.json target/obs/serve-load.prom
}

# Kernel speed is a row of the benchmark (bfv.ntt_*_ns, bfv.encrypt_us, ...)
# and kernel exactness a tier-1 test (crates/bfv/tests/ntt_diff.rs,
# decrypt_rns.rs, the henn ops tests); this step runs the paper's tables and
# figures and smoke-runs every benchmark workload.
step_bench() {
    # Fig. 3 times WeightBank::prepare, the once-per-model operand
    # preparation the served convolution consumes; its wall times are
    # orientation only, so the gate is that the sweep runs and reports one
    # linearity fit per sweep (two fixed-kernel sweeps and the joint one).
    echo "==> fig3 (weight-operand preparation sweeps)"
    mkdir -p target/bench
    repro fig3 --quick > target/bench/fig3.txt
    test "$(grep -c '^  R² ' target/bench/fig3.txt)" -eq 3

    # The remaining paper tables and figures (Tables I–VI, Figs. 4–6) and
    # the ablations: each must run to completion and print its table.
    echo "==> paper tables, figures 4-6, model, ablation"
    repro table1 table2 table3 table4 table5 fig4 fig5 fig6 model ablation --quick > target/bench/paper.txt
    test -s target/bench/paper.txt

    # Fig. 8's deterministic face: modeled enclave cost terms + HE op counts
    # (no wall seconds), for cross-commit diffing and byte-identical across
    # reruns. Each run asserts that every hybrid
    # and pure-HE prediction equals the plaintext quantized reference.
    echo "==> fig8 bench table (two runs, diffed)"
    run_twice_diff fig8 target/bench/BENCH_fig8.json

    # The frozen benchmark accounts stages by position and verifies every
    # logit row against forward_ints, exiting non-zero on a mismatch; a short
    # traced run of each BENCHMARK.json workload makes a plan-shape change
    # that breaks either fail here instead of in the benchmark run. Read-only
    # use of benchmark/ (it writes under its git-ignored out/).
    local benchmark=(cargo run --release --offline -q --manifest-path benchmark/Cargo.toml --)
    local workloads workload
    workloads=$("${benchmark[@]}" --list | awk '$1 == "workload" { print $2 }')
    test -n "$workloads"
    for workload in $workloads; do
        echo "==> benchmark smoke: $workload"
        "${benchmark[@]}" --workload "$workload" --seed 1 --seconds 2 --trace 1 \
            > target/bench/smoke.txt
        # A fig8_fv request (batch of 10) is served packed both ways: 130
        # ct x pt multiplies (50 conv products, one per map and image, and 80
        # FC products, 8 operand cells a class), against 7250 with one FC
        # input per ciphertext out of the enclave (50 + 7200) and 79200 with
        # one pixel per ciphertext into it. A silent fall back to either
        # unpacked layout must fail here, not show up later as a slow
        # benchmark.
        if [ "$workload" = fig8_fv ]; then
            awk '$1 == "henn.ops.ct_pt_mul" { seen = 1; if ($2 + 0 >= 7250) unpacked = 1 }
                 END { exit (unpacked || !seen) }' target/bench/smoke.txt
        fi
        # A purehe_12 request (batch of 10) runs in the orbit layout: per CRT
        # part, 36 secret-key encryptions (3 transforms each: the batch
        # encode and one forward a limb), 8 squares (25: every component
        # lifted once) and relinearisations (18), 6 FC products over
        # coefficient-form pooled cells (4), 15 rotations (16: two inverse
        # for c1, 14 digit forwards) and 3 logit decryptions (3) — 725 a
        # part, 1450 for the two (869 and 1738 with public-key encryptions
        # at 7 transforms each). One pixel per ciphertext it is 200 squares
        # a part (19246 transforms with public-key encryptions). A silent
        # fall back to the per-pixel plan (ct x ct multiplies at 200 or
        # more), to public-key encryption, or any extra transform must fail
        # here.
        if [ "$workload" = purehe_12 ]; then
            awk '$1 == "henn.ops.ct_ct_mul" { squares = 1; if ($2 + 0 >= 200) unpacked = 1 }
                 $1 == "prof.bfv_ntt_calls" { seen = 1; if ($2 + 0 > 1450) transformed = 1 }
                 END { exit (unpacked || transformed || !seen || !squares) }' target/bench/smoke.txt
        fi
        # A fig8 request is 180 transforms because whoever holds s encrypts
        # in evaluation form and the map stays there through the conv and
        # the FC (one forward per limb, two limbs; a slot-encoded cell adds
        # its batch encode or decode): 10·2 coefficient-encoded ingress
        # encryptions (client, or fig8_tc's enclave) + 50·2 conv-output
        # decryptions + 8·3 operand re-encryptions + 0 in the conv and the
        # FC + 10·3 partial-sum decryptions + 3 for the reduced logits' one
        # re-encryption + 3 for the user's decryption. It was 345 with every
        # pooled value repeated once per class (72·3 re-encryptions, one
        # partial-sum cell) and 1899 with a public-key client,
        # coefficient-form re-encryptions and an FC that transformed its
        # operands. A silent return to any of them must fail here.
        if [ "$workload" = fig8_fv ] || [ "$workload" = fig8_tc ]; then
            awk '$1 == "prof.bfv_ntt_calls" { seen = 1; if ($2 + 0 > 180) transformed = 1 }
                 END { exit (transformed || !seen) }' target/bench/smoke.txt
        fi
        # The enclave heap stays resident between requests and a fig8
        # request's ≈ 2 MiB working set sits far inside the 93 MiB EPC, so
        # its pages fault on the session's first request only: a steady-state
        # request books no paging time. A return to re-faulting the heap on
        # every request (it was 559 pages, 6.7 ms) must fail here.
        if [ "$workload" = fig8_fv ] || [ "$workload" = fig8_tc ]; then
            awk '$1 == "tee.paging_ms" { seen = 1; if ($2 + 0 != 0) paged = 1 }
                 END { exit (paged || !seen) }' target/bench/smoke.txt
        fi
    done
    rm -f target/bench/smoke.txt
}

# The run itself asserts the deterministic face (tree shape, call counts,
# bytes — no nanoseconds) is byte-identical across HE pool sizes 1/2/4, that
# profiled logits match an unprofiled serve bit-for-bit, and that the
# measured/modeled drift ratio stays inside the checked-in budget band. The
# run-twice diff covers the cross-run half of the contract; the flamegraph
# and hotspot table are wall-face artifacts for humans, never diffed.
step_profile() {
    echo "==> profile (two runs, deterministic sections diffed)"
    run_twice_diff profile target/bench/BENCH_profile.deterministic.json
    test -s target/bench/BENCH_profile.json
    test -s target/bench/profile.collapsed.txt
    test -s target/bench/profile_hotspots.txt
}

# ROADMAP's size metric, measured by a tool: the lines above the first
# `#[cfg(test)]` of every *.rs under crates/{core,henn,bfv}/src, per crate
# and in total, against the checked-in results/loc.txt — so growth is a
# reviewed diff of that file, not a sentence in a PR body.
step_loc() {
    echo "==> non-test lines of crates/{core,henn,bfv}/src (vs results/loc.txt)"
    local crate count total=0 report=""
    for crate in core henn bfv; do
        count=$(find "crates/$crate/src" -name '*.rs' -exec awk '
            FNR == 1 { test = 0 }
            /#\[cfg\(test\)\]/ { test = 1 }
            !test { n++ }
            END { print n + 0 }' {} +)
        report+="$crate $count"$'\n'
        total=$((total + count))
    done
    report+="total $total"
    echo "$report"
    if ! diff results/loc.txt <(echo "$report"); then
        echo "loc: counts differ from results/loc.txt; update it in the same commit" >&2
        exit 1
    fi
}

steps=(lint test chaos obs serve bench profile loc)
if [ "$#" -gt 0 ]; then
    for step in "$@"; do
        case " ${steps[*]} " in
            *" $step "*) ;;
            *)
                echo "unknown step: $step (expected: ${steps[*]})" >&2
                exit 2
                ;;
        esac
    done
    steps=("$@")
fi
for step in "${steps[@]}"; do
    "step_$step"
done
echo "ci: ${steps[*]} passed"
