#!/usr/bin/env bash
# The benchmark's one command: build the package in release mode, then run it.
#
#   benchmark/run.sh [--seed N] [--quick]
#       every workload, end to end and per layer; prints each metric as
#       `workload name value unit` and writes benchmark/results/latest.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of standard output is one JSON object
#
# Exits non-zero when the build fails or any output is wrong.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo reads a relative CARGO_TARGET_DIR against the directory it is called
# from; resolve it once so the executable is where this script looks.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/prompt-e2e-bench" --results-dir "$here/results" "$@"
