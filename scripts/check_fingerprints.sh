#!/usr/bin/env bash
# Answer-identity gate: builds BASE_REF (checked out in a temporary git
# worktree) and the working tree, runs the same fixed query set through
# tests/tools/fingerprint_dump.cc on both builds, and diffs the per-query
# Fingerprint() lines. The query set covers a generated open-data lake and a
# WDC-like lake, each in batch mode and as a StopAfter(1) request. Exits 0
# only when every fingerprint is identical.
#
# Usage: scripts/check_fingerprints.sh BASE_REF
# Env:   JOBS  build parallelism (default 4)
#        CXX   compiler for the tool (default c++)
#
# Both builds compile the working tree's tool and tests/query_fingerprint.h
# against their own libver.a, so a base commit that predates the tool is
# checked the same way as the working tree.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
base_ref=$1
root=$(git rev-parse --show-toplevel)
jobs=${JOBS:-4}
cxx=${CXX:-c++}
tmp=$(mktemp -d)

cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$tmp/base" "$base_ref" >/dev/null

# build SRC_DIR BUILD_DIR TOOL_BIN
build() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release -DVER_BUILD_TESTS=OFF \
    -DVER_BUILD_BENCHES=OFF -DVER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$2" --target ver -j "$jobs" >/dev/null
  "$cxx" -std=c++17 -O2 -DNDEBUG -I"$1/src" -I"$root/tests" \
    "$root/tests/tools/fingerprint_dump.cc" "$2/libver.a" -pthread -o "$3"
}

echo "building $base_ref ..."
build "$tmp/base" "$tmp/base-build" "$tmp/dump-base"
echo "building the working tree ..."
build "$root" "$tmp/head-build" "$tmp/dump-head"

"$tmp/dump-base" > "$tmp/base.txt"
"$tmp/dump-head" > "$tmp/head.txt"
count=$(wc -l < "$tmp/head.txt")
if ! diff "$tmp/base.txt" "$tmp/head.txt"; then
  echo "FAILED: fingerprints differ from $base_ref (lines above: < base, > working tree)"
  exit 1
fi
echo "ok: $count query fingerprints identical to $base_ref"
