#!/usr/bin/env bash
# Two interleaved sets of three runs per workload on the same build, at
# `run_seconds`, judged against the benchmark's own bounds. Takes no
# arguments; run from the root of a checkout:
#
#   bash benchmark/agree.sh
#
# Prints a markdown table (pasted into benchmark/README.md) and exits
# non-zero if any workload x end-to-end metric breaches its bound.
set -euo pipefail

if [ ! -f benchmark/run.sh ]; then
    echo "agree.sh: run me from the root of the checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --bin eml-benchmark >&2
exec "$target/release/eml-benchmark" agree
