#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash e2ebench/run.sh --workload cold-inmem --seed 42 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); generated inputs, spill pages and temporary
# files go under e2ebench/work/. Cargo's messages go to standard
# error, so the last line of standard output is the result JSON.
set -euo pipefail

bench="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$bench")"
cd "$root"
work="$bench/work"
mkdir -p "$work/tmp"
export TMPDIR="$work/tmp"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/dbre-e2ebench" --work "$work" "$@"
