#!/usr/bin/env bash
# One-command wrapper: builds the benchmark offline and runs it.
#
#   benchmark/run.sh                      # every workload, untraced + traced, seed 1
#   benchmark/run.sh --seed 7 --repeat 2  # A/A mode with the noise report
#   benchmark/run.sh --workload load_clean --seed 1 --seconds 8 --trace 0
#
# The commit hash is passed in because a benchmarked checkout need not be
# a git repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export BENCH_COMMIT
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
