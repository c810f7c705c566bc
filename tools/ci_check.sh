#!/usr/bin/env bash
# Builds and runs the test suite under AddressSanitizer, ThreadSanitizer
# and UndefinedBehaviorSanitizer, the configurations that lock down the
# parallel execution layer and the parsers. Each sanitizer gets its own
# build tree (build-asan/, build-tsan/, build-usan/) so the plain build/ is
# never polluted with instrumented objects.
#
# Usage:
#   tools/ci_check.sh               # all three sanitizers, full test suite
#   tools/ci_check.sh address       # ASan only
#   tools/ci_check.sh thread        # TSan only
#   tools/ci_check.sh undefined     # UBSan only
#
# Environment:
#   CI_CHECK_TEST_FILTER  optional ctest -R regex (default: all tests)
#   CI_CHECK_JOBS         parallel build jobs (default: nproc)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${CI_CHECK_JOBS:-$(nproc)}"
FILTER="${CI_CHECK_TEST_FILTER:-}"

SANITIZERS=("address" "thread" "undefined")
if [[ $# -ge 1 ]]; then
  SANITIZERS=("$@")
fi

run_config() {
  local sanitizer="$1"
  local build_dir="${ROOT}/build-${sanitizer:0:1}san"
  echo "=== ${sanitizer} sanitizer: configure + build (${build_dir}) ==="
  # Benchmarks and examples are not needed to validate the library under a
  # sanitizer, and skipping them roughly halves the instrumented build.
  local launcher_args=()
  if command -v ccache >/dev/null 2>&1; then
    launcher_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  fi
  cmake -B "${build_dir}" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRULELINK_SANITIZE="${sanitizer}" \
    -DRULELINK_BUILD_BENCHMARKS=OFF \
    -DRULELINK_BUILD_EXAMPLES=OFF \
    "${launcher_args[@]}"
  cmake --build "${build_dir}" -j "${JOBS}"

  echo "=== ${sanitizer} sanitizer: ctest ==="
  local ctest_args=(--test-dir "${build_dir}" --output-on-failure -j "${JOBS}")
  if [[ -n "${FILTER}" ]]; then
    ctest_args+=(-R "${FILTER}")
  fi
  if [[ "${sanitizer}" == "thread" ]]; then
    # Fail the run on any reported race, and keep going so one race does
    # not mask the rest of the suite.
    TSAN_OPTIONS="halt_on_error=0 exitcode=66" ctest "${ctest_args[@]}"
  else
    ASAN_OPTIONS="detect_leaks=1" ctest "${ctest_args[@]}"
  fi
}

for sanitizer in "${SANITIZERS[@]}"; do
  run_config "${sanitizer}"
done

echo "=== all sanitizer configurations passed ==="
