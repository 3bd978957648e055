#!/usr/bin/env bash
# Builds the benchmark from source and runs it. All arguments go to the
# program (see README.md): with --workload it is the driver's form, without
# it every workload runs and every metric is printed by name.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Reuse the repository's target directory unless the caller names one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export DSAGEN_BENCH_OUT="$here/out"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dsagen-benchmark" "$@"
