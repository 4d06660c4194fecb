#!/usr/bin/env bash
# The one command of the perf ledger. Builds the `ledger` binary from source
# (release profile, the repository's own `.cargo/config.toml` flags) and runs
# it with the arguments given:
#
#   benchmark/run.sh [--seed N] [--smoke]                whole ledger -> benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     one run (BENCHMARK.json contract)
#   benchmark/run.sh diff A.json B.json                  compare two ledgers
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's own output goes to stderr: stdout carries only the ledger's lines.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
