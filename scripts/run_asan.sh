#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer lane over every suite:
# builds a separate tree with -DSOFOS_ASAN=ON (-fsanitize=address,undefined
# -fno-sanitize-recover) and runs the whole CTest suite there. Any heap or
# stack misuse, leak, or undefined behaviour aborts the test that hit it.
# The ThreadSanitizer lane (data races) is scripts/run_tsan.sh.
#
#   scripts/run_asan.sh [build_dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-asan}"

# Ninja builds a --target list in parallel; the Makefile generator builds
# the targets one after another. A tree already configured keeps its
# generator.
GENERATOR=()
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
  GENERATOR=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" "${GENERATOR[@]}" -DSOFOS_ASAN=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Only the test binaries: benches and examples add build time, not coverage.
mapfile -t TESTS < <(cd "$REPO_ROOT/tests" && ls ./*_test.cc | sed 's|^\./||; s|\.cc$||')
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"
