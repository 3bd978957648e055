#!/usr/bin/env bash
# Runs `cargo test` with name filters and fails when a filter ran no test.
#
# `cargo test -- name` passes with "0 passed" when `name` matches nothing,
# so a renamed or deleted test would silently drop out of a CI step. This
# wrapper fails the step instead: the run must pass at least one test, and
# every filter after `--` must match a test that ran and passed. Arguments
# after `--` that start with `-` are taken as harness flags, not filters.
#
# Usage: .github/cargo-test-filtered.sh <cargo test args> -- <filter>...
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
ran=$(sed -n 's/^test \(.*\) \.\.\. ok$/\1/p' "$log")
if [ -z "$ran" ]; then
  echo "error: cargo test $* ran no test" >&2
  exit 1
fi
filters=false
for arg in "$@"; do
  if [ "$arg" = "--" ]; then
    filters=true
  elif $filters && [ "${arg#-}" = "$arg" ] && ! grep -qF -- "$arg" <<<"$ran"; then
    echo "error: filter '$arg' matched no test that ran" >&2
    exit 1
  fi
done
echo "$(wc -l <<<"$ran") test(s) ran and passed for: cargo test $*"
