#!/usr/bin/env bash
# Checks that the working tree's experiment reports are byte-identical to
# those of <base-ref>: every JSON cell `lumiere-bench all --out` writes, and
# the markdown report it prints.
#
# The base's `lumiere-bench` is built from a git worktree of <base-ref> under
# target/report-diff/ (removed again on exit; its build directory is kept,
# so a second run rebuilds only what changed). Both sides run
# `lumiere-bench all --out DIR --threads <threads>`; their outputs stay in
# target/report-diff/{base,change}/ (`reports/` and `report.md`).
#
# Exits 1 if anything differs: `lumiere-bench --diff` names the cells whose
# contents differ, `diff -rq` any file that differs byte for byte, and the
# markdown reports' diff is printed. Exits 2 on a ref that names no commit.
#
# Usage:
#   scripts/report-diff.sh <base-ref> [threads]   (default: 2 threads)
set -euo pipefail
cd "$(dirname "$0")/.."

. scripts/worktree.sh

usage="usage: scripts/report-diff.sh <base-ref> [threads]"
base_ref=${1:?$usage}
threads=${2:-2}

work=target/report-diff
checkout_worktree "$base_ref" "$work/base-tree"

echo "building the base ($rev) and the change ..." >&2
CARGO_TARGET_DIR="$PWD/$work/base-target" cargo build --release --offline --quiet \
    --manifest-path "$work/base-tree/Cargo.toml" -p lumiere-bench --bin lumiere-bench
cargo build --release --offline --quiet -p lumiere-bench --bin lumiere-bench
change_bin=target/release/lumiere-bench

for side in base change; do
    if [ "$side" = base ]; then bin=$work/base-target/release/lumiere-bench; else bin=$change_bin; fi
    echo "running every experiment on the $side ..." >&2
    rm -rf "${work:?}/$side"
    mkdir -p "$work/$side"
    "$bin" all --out "$work/$side/reports" --threads "$threads" > "$work/$side/report.md" 2> /dev/null
done

failed=0
"$change_bin" --diff "$work/base/reports" "$work/change/reports" || failed=1
diff -rq "$work/base/reports" "$work/change/reports" || failed=1
if ! diff "$work/base/report.md" "$work/change/report.md"; then
    echo "the markdown reports differ"
    failed=1
fi
cells=$(find "$work/change/reports" -type f | wc -l)
if [ "$failed" = 0 ]; then
    echo "report-diff: $cells report files and the markdown report are identical to $rev"
else
    echo "report-diff: FAIL against $rev"
fi
exit "$failed"
