#!/usr/bin/env bash
# loc.sh — print the module's Go line counts, non-test and test, so each
# change's net line count can be put on record. The benchmark module
# (ledgerbench/) and its build directory (.bench_build/) are excluded.
#
# Usage:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find . \( -path ./ledgerbench -o -path ./.bench_build -o -path ./.git \) -prune \
    -o -type f -name '*.go' -print0 \
    | { if [ "$1" = test ]; then grep -z '_test\.go$'; else grep -zv '_test\.go$'; fi; } \
    | xargs -0 cat | wc -l
}

echo "non-test Go lines: $(count src)"
echo "test Go lines:     $(count test)"
