#!/usr/bin/env bash
# Paired A/B runs of the serving benchmark: this checkout (the change)
# against an earlier revision (the parent). Run from the root of a
# checkout:
#
#   bash scripts/ab.sh <rev> <workload> <pairs> <seconds> [workdir] [first-seed]
#
# <rev> is cloned into <workdir>/parent (default `target/ab`; a clone,
# so the repository's own .git gains no worktree entry) and each side
# is built once, into its own target directory, before any run. Pair i
# runs `benchmark/run.sh --trace 0` on seed first-seed + i on both
# sides, the change first on even i and the parent first on odd i. The
# first seed defaults to one drawn from the clock, so every invocation
# measures on fresh seeds; pass it to repeat a table. Each run's record
# and result lines are kept in <workdir>/runs/.
#
# The summary (scripts/ab_summary.py) gives, for every end-to-end metric
# in BENCHMARK.json and every wall-clock field of the run record, each
# side's quartiles and median, the median change/parent ratio, the pairs
# the change won (ties count for neither), a seeded-bootstrap 95 %
# interval of the per-pair ratios' median and a verdict (gain, loss or
# unresolved), then each side's correctness and failures.
set -euo pipefail

if [ $# -lt 4 ] || [ ! -f benchmark/run.sh ]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
rev="$1" workload="$2" pairs="$3" seconds="$4"
work="${5:-target/ab}"
seed0="${6:-$(($(date +%s) % 100000 * 100))}"
here="$(pwd)"
sha="$(git rev-parse --verify "$rev^{commit}")"
mkdir -p "$work/runs"
work="$(cd "$work" && pwd)"

parent="$work/parent"
[ -d "$parent/.git" ] || git clone --quiet --no-checkout "$here" "$parent"
git -C "$parent" cat-file -e "$sha^{commit}" 2>/dev/null ||
    git -C "$parent" fetch --quiet "$here" "+refs/heads/*:refs/remotes/origin/*"
git -C "$parent" checkout --quiet --detach "$sha"

declare -A dir=([parent]="$parent" [change]="$here")
for side in parent change; do
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "${dir[$side]}/benchmark/Cargo.toml" --bin eml-benchmark
done

run() {
    local side="$1" i="$2"
    (cd "${dir[$side]}" && CARGO_TARGET_DIR="$work/$side-target" bash benchmark/run.sh \
        --workload "$workload" --seed $((seed0 + i)) --seconds "$seconds" --trace 0) \
        2>/dev/null | tail -n 2 >"$work/runs/$workload-$side-$i.txt"
}

echo "ab: $workload, $pairs pairs of ${seconds}s, parent ${sha:0:7}, seeds $seed0..$((seed0 + pairs - 1))" >&2
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="change parent"; else order="parent change"; fi
    for side in $order; do
        run "$side" "$i"
        echo "ab: pair $((i + 1))/$pairs $side done" >&2
    done
done

python3 "$here/scripts/ab_summary.py" "$work/runs" "$workload" "$pairs"
