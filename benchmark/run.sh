#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds `eml-benchmark` from source (offline, release, the committed
# lock file), pins the process, and runs it. The last line of standard
# output is the result; build chatter goes to standard error.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bin eml-benchmark >&2
bin="$target/release/eml-benchmark"

# One intra-op thread everywhere: parallelism comes from the driver
# pool (`pool_workers`), which is what the workloads vary.
export RAYON_NUM_THREADS=1

# Every workload runs on one CPU, the last the process is allowed on.
# The three single-driver workloads ping-pong between a client and a
# driver, which repeats far better when both share a CPU (no cross-CPU
# wake-ups). `fanout_100t` was specified on two; on this 2-vCPU guest
# that is three busy threads on two vCPUs, the speed meter's core then
# slows with what the drivers do on the other one (its factor read
# 1.36 against 1.24), and restating no longer narrowed the run-to-run
# spread (10-14 %). So its two drivers are time-sliced on one CPU, the
# workload says so, and no workload covers cross-core contention (see
# the README). The mask actually in force is read back from /proc and
# printed in the run record, pinned or not.
if command -v taskset >/dev/null 2>&1; then
    allowed="$(taskset -cp $$ | sed 's/.*: *//')"
    last="${allowed##*[,-]}"
    exec taskset -c "$last" "$bin" "$@"
fi
exec "$bin" "$@"
