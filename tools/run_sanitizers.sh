#!/usr/bin/env bash
# Builds the project under ThreadSanitizer and AddressSanitizer and runs the
# concurrency-sensitive tests (ctest label `sanitize`; pass -a to run the
# full suite). The sanitized trees live next to the regular build in
# build-tsan/ and build-asan/ so they never pollute it.
#
# Usage: tools/run_sanitizers.sh [-a] [thread|address]
#   -a       run every test, not just the `sanitize` label
#   thread / address   run only that sanitizer (default: both)

set -euo pipefail
cd "$(dirname "$0")/.."

label_args=(-L sanitize)
sanitizers=()
for arg in "$@"; do
  case "$arg" in
    -a) label_args=() ;;
    thread|address) sanitizers+=("$arg") ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
[ ${#sanitizers[@]} -eq 0 ] && sanitizers=(thread address)

for san in "${sanitizers[@]}"; do
  build_dir="build-${san:0:1}san"   # build-tsan / build-asan
  [ "$san" = address ] && build_dir=build-asan
  [ "$san" = thread ] && build_dir=build-tsan
  echo "=== $san sanitizer ($build_dir) ==="
  cmake -B "$build_dir" -S . -DPNR_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  if [ ${#label_args[@]} -eq 0 ]; then
    cmake --build "$build_dir" -j"$(nproc)"
  else
    # Every binary a `sanitize`-labelled test runs (pnr_sanitize_test).
    cmake --build "$build_dir" -j"$(nproc)" --target sanitize_targets
  fi
  (cd "$build_dir" && ctest "${label_args[@]}" --output-on-failure)
done
echo "sanitizer runs passed"
