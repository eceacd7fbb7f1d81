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
# A header line `hangs: yes` declares a mutant whose tests hang rather
# than fail. Every test run gets LIMIT seconds (below); running out
# counts as a kill only for a mutant that declares it hangs, and is an
# error everywhere else, a baseline included.
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
# baseline fails, or a patch no longer applies, does not compile,
# survives or runs out of time without declaring it hangs. A patch
# that moved code stops applying; refresh it against the new tree.
set -euo pipefail

if [ ! -d scripts/mutants ] || [ $# -gt 1 ]; then
    sed -n '2,30p' "$0" >&2
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
# Seconds one test run may take (the build before it is not counted):
# every committed mutant's tests finish in a few.
LIMIT=60

reset() {
    git -C "$tree" checkout --quiet --force --detach "$sha"
    git -C "$tree" clean --quiet -fd
}
tests_of() { sed -n '/^diff --git/q; s/^test: *//p' "$1"; }
hangs() { [ -n "$(sed -n '/^diff --git/q; /^hangs: *yes *$/p' "$1")" ]; }
# Builds the tests in $1 (cargo test arguments) on the clone.
build_tests() {
    # shellcheck disable=SC2086 # the header's arguments split on purpose
    (cd "$tree" && cargo test --offline -q --no-run $1) >/dev/null 2>&1
}
# Runs them under the time limit; exits 124 if they ran out of it.
run_tests() {
    local status=0
    # shellcheck disable=SC2086 # the header's arguments split on purpose
    (cd "$tree" && timeout --kill-after=10 "$LIMIT" cargo test --offline -q $1) >/dev/null 2>&1 ||
        status=$?
    # timeout's own 124, or 137 when the run ignored TERM and was killed.
    [ "$status" -eq 137 ] && status=124
    return "$status"
}

start=$SECONDS
failed=0
reset
declare -A baseline=()
for patch in "${patches[@]}"; do
    args="$(tests_of "$patch")"
    [ -n "$args" ] && [ -z "${baseline[$args]:-}" ] || continue
    baseline[$args]=1
    if ! build_tests "$args" || ! run_tests "$args"; then
        echo "mutants: baseline fails or runs past ${LIMIT} s on ${sha:0:7}: cargo test $args" >&2
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
    if ! build_tests "$args"; then
        echo "mutants: $name: does not compile" >&2
        failed=1
        continue
    fi
    status=0
    run_tests "$args" || status=$?
    if [ "$status" -eq 0 ]; then
        echo "mutants: $name: SURVIVED ($args, $((SECONDS - t0)) s)"
        failed=1
    elif [ "$status" -ne 124 ]; then
        echo "mutants: $name: killed ($args, $((SECONDS - t0)) s)"
    elif hangs "$patch"; then
        echo "mutants: $name: killed, hung past ${LIMIT} s as its header declares ($args)"
    else
        echo "mutants: $name: ran past ${LIMIT} s, and its header does not declare 'hangs: yes' ($args)"
        failed=1
    fi
done
reset
echo "mutants: ${#patches[@]} patches against ${sha:0:7} in $((SECONDS - start)) s" >&2
exit "$failed"
