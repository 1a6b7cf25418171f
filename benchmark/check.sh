#!/usr/bin/env bash
# Builds the benchmark's own workspace offline and runs every workload on the
# Tiny specs (--smoke): the same code paths and every correctness check, in
# well under 20 s after the build. Also checks that BENCHMARK.json is what the
# binary describes. For CI; run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

"${run[@]}" describe | diff -u BENCHMARK.json - \
    || { echo "BENCHMARK.json is stale: regenerate it with 'describe'" >&2; exit 1; }
"${run[@]}" run --smoke
echo "benchmark smoke: ok"
