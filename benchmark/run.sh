#!/usr/bin/env bash
# The benchmark's one command: builds the crate offline, then runs it.
#
#   benchmark/run.sh [--seed N] [--quick] [--workload NAME] [--self-check]
#       the whole set: every metric by name, then benchmark/out/report.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, one result line (what BENCHMARK.json's command is given)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build into the repository's own target/ unless the caller chose elsewhere.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/rtsm_benchmark" --out "$here/out" "$@"
