#!/usr/bin/env bash
# Builds the neusight CLI and the benchmark runner from this checkout,
# then runs one workload. From the root of the checkout:
#   bash nsbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
# Build outputs (and the trained fixture) go to $CARGO_TARGET_DIR, or
# ./target when it is unset.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p neusight-cli >&2
cargo build --release --offline --quiet --manifest-path nsbench/Cargo.toml >&2
exec "$target/release/nsbench" --bin-dir "$target/release" "$@"
