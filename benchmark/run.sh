#!/usr/bin/env bash
# The repo benchmark. Builds the harness twice (gated: no features;
# traced: cilkm/trace + cilkm-core/instrument, in a second target dir),
# then runs
#
#   benchmark/run.sh [--seed N]
#       all seven workloads in three passes (gated, traced, probes),
#       printing every metric by name with its unit; non-zero exit on any
#       failed check or precondition;
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload: end-to-end metrics from the gated pass (--trace 0)
#       or per-layer metrics from the traced and probe passes (--trace 1),
#       with one JSON object as the last line of stdout.
#
# Result and spans files land in benchmark/out/. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# shellcheck source=build.sh
source "$here/build.sh"

build_gated
build_traced
exec "$gated_bin" run --bench-dir "$here" --traced-bin "$traced_bin" "$@"
