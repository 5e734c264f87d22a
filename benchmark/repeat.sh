#!/usr/bin/env bash
# Lints and tests the benchmark package (the root ci.sh does not cover it,
# and this directory may not edit it), then runs two full sets back to back
# and compares them: every end-to-end metric against its BENCHMARK.json
# bound, every exact-count metric for equality. Arguments go to
# `stability.py repeat` (e.g. --seed 7, --workloads fig8_fv,broker_12).
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
exec python3 stability.py repeat "$@"
