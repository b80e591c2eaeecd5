#!/usr/bin/env bash
# Build the benchmark package, then run it. See benchmark/README.md.
#
#   benchmark/run.sh [--seed S] [--workload NAME] [--smoke] [--check]
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
# Cargo's chatter goes to stderr, so the last stdout line stays the result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/tapestry-benchmark" "$@"
