#!/usr/bin/env bash
# Mutation check: plants each recorded defect in a clean clone of HEAD
# and runs the tests meant to catch it. Run from the root of a checkout:
#
#   bash scripts/mutants.sh [workdir]
#
# Every scripts/mutants/*.patch is a diff against HEAD that `git apply`
# takes. Its header, the lines before the first `diff --git`, says what
# the defect is and names the tests in one line of cargo test arguments:
#
#   test: -p eml-nn --lib gemm::
#
# HEAD is cloned into <workdir>/tree (default `target/mutants`; a clone,
# so the repository's own .git gains no worktree entry). A tree left by
# an earlier run is reused if it holds HEAD's commit, and cloned afresh
# if not: a detached or shallow checkout's commit may be on no branch
# that a fetch would bring. All mutants share one target directory,
# <workdir>/target, so each rebuilds only the crates its patch touches.
# Each distinct test line is first run on HEAD itself, where it must
# pass. Then per patch the clone is reset to HEAD, the patch applied,
# the tests built (a mutant that does not compile is an error, not a
# kill) and run: they must fail. The script exits non-zero if a
# baseline fails, or a patch no longer applies, does not compile, or
# survives. A patch that moved code stops applying; refresh it against
# the new tree.
set -euo pipefail

if [ ! -d scripts/mutants ] || [ $# -gt 1 ]; then
    sed -n '2,25p' "$0" >&2
    exit 2
fi
here="$(pwd)"
work="${1:-target/mutants}"
patches=("$here"/scripts/mutants/*.patch)
sha="$(git rev-parse --verify HEAD^{commit})"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
tree="$work/tree"
git -C "$tree" cat-file -e "$sha^{commit}" 2>/dev/null || {
    rm -rf "$tree"
    git clone --quiet --no-checkout "$here" "$tree"
}
export CARGO_TARGET_DIR="$work/target"

reset() {
    git -C "$tree" checkout --quiet --force --detach "$sha"
    git -C "$tree" clean --quiet -fd
}
tests_of() { sed -n '/^diff --git/q; s/^test: *//p' "$1"; }

start=$SECONDS
failed=0
reset
declare -A baseline=()
for patch in "${patches[@]}"; do
    args="$(tests_of "$patch")"
    [ -n "$args" ] && [ -z "${baseline[$args]:-}" ] || continue
    baseline[$args]=1
    # shellcheck disable=SC2086 # the header's arguments split on purpose
    if ! (cd "$tree" && cargo test --offline -q $args) >/dev/null 2>&1; then
        echo "mutants: baseline fails on ${sha:0:7}: cargo test $args" >&2
        exit 1
    fi
done
echo "mutants: ${#baseline[@]} baselines pass on ${sha:0:7} ($((SECONDS - start)) s)" >&2

for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    args="$(tests_of "$patch")"
    reset
    if [ -z "$args" ]; then
        echo "mutants: $name: no 'test:' line in its header" >&2
        failed=1
        continue
    fi
    if ! git -C "$tree" apply "$patch"; then
        echo "mutants: $name: no longer applies to ${sha:0:7}" >&2
        failed=1
        continue
    fi
    t0=$SECONDS
    # shellcheck disable=SC2086
    if ! (cd "$tree" && cargo test --offline -q --no-run $args) >/dev/null 2>&1; then
        echo "mutants: $name: does not compile" >&2
        failed=1
        continue
    fi
    # shellcheck disable=SC2086
    if (cd "$tree" && cargo test --offline -q $args) >/dev/null 2>&1; then
        echo "mutants: $name: SURVIVED ($args, $((SECONDS - t0)) s)"
        failed=1
    else
        echo "mutants: $name: killed ($args, $((SECONDS - t0)) s)"
    fi
done
reset
echo "mutants: ${#patches[@]} patches against ${sha:0:7} in $((SECONDS - start)) s" >&2
exit "$failed"
