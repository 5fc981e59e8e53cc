#!/usr/bin/env bash
# Dead-code audit: lists every function in src/ that no reachable path
# calls. Builds the `coverage` preset (build-cov/, --coverage -O0), runs
# tier-1 (ctest), tools/serve_smoke.sh, tools/stream_smoke.sh and
# `pipebench/run.py --quick` (itself built with --coverage under
# build-cov/bench), then reads every .gcda with `gcov --json-format` and
# prints each src/ function whose call count is zero in every run, as
# `file:line function`, followed by the count. A function inlined into
# every caller or never instantiated has no record and is not listed.
# Needs cmake, gcov, python3 and curl (for the smokes).
#
# Usage: tools/coverage_audit.sh

set -euo pipefail
cd "$(dirname "$0")/.."
jobs="$(nproc)"

cmake --preset coverage > /dev/null
cmake --build --preset coverage -j "$jobs" > /dev/null
cmake -S pipebench -B build-cov/bench/pipebench -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="--coverage -O0" > /dev/null
find build-cov -name '*.gcda' -delete

ctest --preset coverage -j "$jobs" --output-on-failure > /dev/null
tools/serve_smoke.sh build-cov > /dev/null
tools/stream_smoke.sh build-cov > /dev/null
CARGO_TARGET_DIR=build-cov/bench python3 pipebench/run.py --quick > /dev/null

find build-cov -name '*.gcda' -print0 |
  xargs -0 gcov --stdout --json-format 2> /dev/null |
  python3 -c '
import json, os, sys

src = os.path.join(os.getcwd(), "src") + os.sep
calls = {}
decoder = json.JSONDecoder()
text = sys.stdin.read()
at = 0
while True:
    while at < len(text) and text[at].isspace():
        at += 1
    if at == len(text):
        break
    doc, at = decoder.raw_decode(text, at)
    for record in doc["files"]:
        path = os.path.normpath(os.path.join(doc["current_working_directory"],
                                             record["file"]))
        if not path.startswith(src):
            continue
        for fn in record["functions"]:
            key = (os.path.relpath(path), fn["start_line"],
                   fn["demangled_name"])
            calls[key] = calls.get(key, 0) + fn["execution_count"]
uncalled = sorted(key for key, count in calls.items() if count == 0)
for path, line, name in uncalled:
    print("%s:%d %s" % (path, line, name))
print("%d of %d src/ functions never called" % (len(uncalled), len(calls)))
'
