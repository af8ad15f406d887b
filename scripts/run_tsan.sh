#!/usr/bin/env bash
# ThreadSanitizer lane over the concurrency-sensitive tests (the ones
# carrying the `maintenance`, `exec`, `server`, `store`, `scale`,
# `observability` and `telemetry` CTest labels — delta-rule incremental
# view maintenance with its parallel per-view roll-up repair, the
# vectorized morsel-parallel executor, the concurrent online serving
# subsystem, the sharded copy-on-write TripleStore with its COW epoch
# snapshots, the compact-layout scale suite with concurrent snapshot
# readers, the metrics/trace layer with its cross-thread recording, and
# the continuous-telemetry stack — background sampler vs. concurrent
# queries/updates, workload recorder, slow-query capture, HTTP listener):
# builds a separate TSan-enabled tree and runs only those suites.
#
#   scripts/run_tsan.sh [build_dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-tsan}"

# Ninja builds a --target list in parallel; the Makefile generator builds
# the targets one after another. A tree already configured keeps its
# generator.
GENERATOR=()
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
  GENERATOR=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" "${GENERATOR[@]}" -DSOFOS_TSAN=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target maintenance_test parallel_test exec_test server_test \
           event_loop_test store_test scale_test observability_test \
           telemetry_test

cd "$BUILD_DIR"
ctest -L 'maintenance|exec|server|store|scale|observability|telemetry' \
  --output-on-failure
