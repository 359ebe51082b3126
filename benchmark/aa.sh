#!/usr/bin/env bash
# A/A calibration: benchmark/aa.sh N [--seed S] [--seconds T] runs N full
# sets of gated passes of the same build, each set with its own seed, and
# prints per (end-to-end metric, workload) the spread between runs
# against the metric's bound in BENCHMARK.json. Non-zero exit if any
# spread or drift is over its bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# shellcheck source=build.sh
source "$here/build.sh"

if [[ $# -lt 1 ]]; then
    echo "usage: benchmark/aa.sh N [--seed S] [--seconds T]" >&2
    exit 2
fi
sets="$1"
shift

build_gated
exec "$gated_bin" aa --bench-dir "$here" --sets "$sets" "$@"
