#!/usr/bin/env bash
# The benchmark's one command: build, then run. See README.md.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   run.sh [--seed 101] [--repeats 3] [--workload W]       the suite
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/rlive-benchmark" --out "$here/out" "$@"
