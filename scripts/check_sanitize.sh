#!/usr/bin/env bash
# Build the tree with sanitizers and run the test suite under them. Usage:
#
#   scripts/check_sanitize.sh [build-dir]      # ASan+UBSan, full tier-1 suite
#   MCM_SANITIZE=thread scripts/check_sanitize.sh [build-dir]
#                                              # TSan on the suites of the
#                                              # code that starts threads
#
# Any sanitizer report fails the run (halt_on_error / abort defaults).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${MCM_SANITIZE:-ON}"
case "$mode" in
  thread) default_dir="$repo_root/build-tsan" ;;
  *)      default_dir="$repo_root/build-sanitize" ;;
esac
build_dir="${1:-$default_dir}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMCM_SANITIZE="$mode"
cmake --build "$build_dir" -j "$(nproc)"

if [ "$mode" = "thread" ]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  # The suites of the code that starts threads: the memoized stream
  # cache's single-flight build, the exec closed loop (run_indexed), the
  # exploration orchestrator, the metrics registry under concurrent
  # registration, and the profiler's cross-thread spool merge. The
  # simulation engine itself runs on one thread.
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
    -R "StreamCache|ClosedLoop|Orchestrator|MetricsRegistryThreadSafe|ProfTest"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
fi
