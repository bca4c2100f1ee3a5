#!/usr/bin/env bash
# Checks that the working tree's experiment reports and fuzzer outputs are
# byte-identical to those of <base-ref>: every JSON cell `lumiere-bench all
# --out` writes and the markdown report it prints, and the corpus and the
# printed reports of the adversary fuzzer's two settings (coverage-guided,
# and flat: every candidate fresh).
#
# The base's `lumiere-bench` and `fuzz_adversary` are built from a git
# worktree of <base-ref> under target/report-diff/ (removed again on exit;
# its build directory is kept, so a second run rebuilds only what changed).
# Both sides run
#   lumiere-bench all --out DIR --threads <threads>
#   fuzz_adversary --coverage --seeds 0..100 --quick --threads <threads> --corpus-out DIR
#   fuzz_adversary --seeds 0..50 --quick --threads <threads>
# and their outputs stay in target/report-diff/{base,change}/ (`reports/`
# and `report.md`; `corpus/`, `coverage.txt` and `fuzz.txt`, each setting's
# stdout and stderr together, and its exit status if not zero).
#
# Exits 1 if anything differs: `lumiere-bench --diff` names the cells whose
# contents differ, `diff -rq` any report or corpus file that differs byte
# for byte, and the markdown reports' and both settings' printed reports'
# diffs are printed (the output directory, which the coverage run names,
# read as DIR on both sides). Exits 2 on a ref that names no commit.
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
    --manifest-path "$work/base-tree/Cargo.toml" -p lumiere-bench --bins
cargo build --release --offline --quiet -p lumiere-bench --bins
change_bin=target/release/lumiere-bench

for side in base change; do
    if [ "$side" = base ]; then bins=$work/base-target/release; else bins=target/release; fi
    out=$work/$side
    echo "running every experiment and both fuzzers on the $side ..." >&2
    rm -rf "${out:?}"
    mkdir -p "$out"
    "$bins/lumiere-bench" all --out "$out/reports" --threads "$threads" > "$out/report.md" 2> /dev/null
    "$bins/fuzz_adversary" --coverage --seeds 0..100 --quick --threads "$threads" \
        --corpus-out "$out/corpus" > "$out/coverage.txt" 2>&1 ||
        echo "exit status $?" >> "$out/coverage.txt"
    "$bins/fuzz_adversary" --seeds 0..50 --quick --threads "$threads" > "$out/fuzz.txt" 2>&1 ||
        echo "exit status $?" >> "$out/fuzz.txt"
    sed -i "s|$out/|DIR/|g" "$out/coverage.txt" "$out/fuzz.txt"
done

failed=0
"$change_bin" --diff "$work/base/reports" "$work/change/reports" || failed=1
diff -rq "$work/base/reports" "$work/change/reports" || failed=1
if ! diff "$work/base/report.md" "$work/change/report.md"; then
    echo "the markdown reports differ"
    failed=1
fi
diff -rq "$work/base/corpus" "$work/change/corpus" || failed=1
for report in coverage.txt fuzz.txt; do
    if ! diff "$work/base/$report" "$work/change/$report"; then
        echo "the fuzzers' $report differs"
        failed=1
    fi
done
cells=$(find "$work/change/reports" -type f | wc -l)
entries=$(find "$work/change/corpus" -type f | wc -l)
if [ "$failed" = 0 ]; then
    echo "report-diff: $cells report files, the markdown report, $entries corpus entries and both fuzzers' reports are identical to $rev"
else
    echo "report-diff: FAIL against $rev"
fi
exit "$failed"
