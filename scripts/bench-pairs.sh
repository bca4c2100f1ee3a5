#!/usr/bin/env bash
# Runs alternating parent/change pairs of the benchmark on every workload in
# BENCHMARK.json and judges the change against the parent.
#
# The parent's `benchmark/` is built from a `git worktree` of <parent-ref>
# under target/bench-pairs/ (removed again on exit; its build directory is
# kept, so a second run rebuilds only what changed). The change is the
# working tree. Both are built into sibling directories,
# target/bench-pairs/{parent,change}-target, because `peak_rss_mb` moves
# with where the binary file sits. Pair i runs both binaries with
# `--seed <first-seed>+i` and `--seconds <seconds>`, parent first on even
# pairs and change first on odd ones, so slow phases of a shared machine hit
# both sides alike. A claimed gain is measured on seeds the change was not
# developed against.
#
# Printed: every run's result line, then per workload each end-to-end
# metric's median and quartiles on both sides and the change/parent ratio of
# the medians. The measured metrics a gain can be claimed on (`setup_s`,
# `work_per_s`, `peak_rss_mb`) are also judged in their BENCHMARK.json
# `better` direction: how many pairs the change won, whether the medians are
# further apart than the parent's interquartile range, and whether the
# median improved by more than the metric's bound. Each also prints
# `claimable: yes` only when the change won at least 9 of every 10 pairs (a
# tie counts for neither side) and the medians are further apart than the
# parent's interquartile range, the rule a claimed gain is judged by, and
# `claimable: no` otherwise; it does not enter the exit rule. Beside their ratio of
# medians they show the median and quartiles of the per-pair ratios: a slow
# phase of the machine that hits one side of a few pairs moves the medians
# of the two sides apart, but only those pairs' ratios. The per-pair ratios
# are a diagnostic; the exit rule below reads the ratio of medians.
#
# Each workload then lists its slow runs, by pair and side: those whose
# `work_per_s` is below 0.8x the upper quartile of their own side. On a
# shared machine such a run is most often a slow phase of the host, and one
# on either side can turn a pair won on the code into a lost one; the list
# names the pairs to read with that in mind. The upper quartile, not the
# median, is the reference, so a phase that slows half of one side's runs
# still lists them. It enters neither the exit rule nor `claimable:`.
#
# Exits non-zero if, on any workload:
#   * a run fails its oracle (non-zero exit, "correct": false, or a failed
#     unit);
#   * msgs_per_commit, auth_bytes_per_commit, vlat_ms_p50 or vlat_ms_tail
#     differs between the two sides of a pair (same seed, so they must be
#     equal);
#   * a metric's change median is worse than the parent median by more than
#     its BENCHMARK.json bound.
#
# Usage:
#   scripts/bench-pairs.sh <parent-ref> [pairs] [seconds] [first-seed]
#   (defaults: 10 pairs, 12 s, seeds from 1001)
set -euo pipefail
cd "$(dirname "$0")/.."

. scripts/worktree.sh

usage="usage: scripts/bench-pairs.sh <parent-ref> [pairs] [seconds] [first-seed]"
parent_ref=${1:?$usage}
pairs=${2:-10}
seconds=${3:-12}
first_seed=${4:-1001}

work=target/bench-pairs
tree=$work/parent
checkout_worktree "$parent_ref" "$tree"
# The change's build rewrites benchmark/Cargo.lock; when the file is
# unmodified now, the exit trap also puts it back, so a run leaves the tree
# as found.
if git diff --quiet -- benchmark/Cargo.lock; then
    # shellcheck disable=SC2064 # $tree is expanded now, on purpose.
    trap "git worktree remove --force '$tree'; git worktree prune; git checkout --quiet -- benchmark/Cargo.lock" EXIT
fi

echo "building the parent ($rev) and the change ..." >&2
CARGO_TARGET_DIR="$PWD/$work/parent-target" \
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$PWD/$work/change-target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
parent_bin=$work/parent-target/release/lumiere-benchmark
change_bin=$work/change-target/release/lumiere-benchmark

workloads=$(python3 -c '
import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
results=$work/results.tsv
: > "$results"
for workload in $workloads; do
    for ((pair = 0; pair < pairs; pair++)); do
        seed=$((first_seed + pair))
        if ((pair % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            bin=${side}_bin
            if line=$("${!bin}" run --workload "$workload" --seed "$seed" \
                --seconds "$seconds" | tail -n 1); then
                ok=true
            else
                ok=false
            fi
            echo "$workload $side pair=$pair seed=$seed $line"
            printf '%s\t%s\t%s\t%s\t%s\n' "$workload" "$side" "$pair" "$ok" "$line" >> "$results"
        done
    done
done

python3 - "$results" <<'EOF'
import json
import sys

EXACT = ["msgs_per_commit", "auth_bytes_per_commit", "vlat_ms_p50", "vlat_ms_tail"]
JUDGED = ["setup_s", "work_per_s", "peak_rss_mb"]
SLOW = 0.8
contract = json.load(open("BENCHMARK.json"))
metrics = contract["end_to_end"]


def parse(line):
    workload, side, pair, ok, result = line.rstrip("\n").split("\t", 4)
    try:
        result = json.loads(result)
    except ValueError:
        result = None
    return {"workload": workload, "side": side, "pair": int(pair), "ok": ok == "true",
            "result": result}


runs = [parse(line) for line in open(sys.argv[1])]


def quantile(values, q):
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def value(run, name):
    return run["result"]["metrics"][name]["value"]


failed = False
for w in [w["name"] for w in contract["workloads"]]:
    mine = [r for r in runs if r["workload"] == w]
    by_pair = {}
    for r in mine:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    broken = [
        f'pair {r["pair"]} {r["side"]}'
        for r in mine
        if not r["ok"] or not r["result"] or not r["result"]["correct"] or r["result"]["failed"]
    ]
    print(f"\n{w}: {len(by_pair)} pairs")
    if broken:
        print(f"  FAIL a run failed its oracle: {', '.join(broken)}")
        failed = True
        continue
    for pair, sides in sorted(by_pair.items()):
        for name in EXACT:
            a, b = value(sides["parent"], name), value(sides["change"], name)
            if a != b:
                print(f"  FAIL pair {pair}: {name} {a} (parent) vs {b} (change)")
                failed = True
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        side = {s: [value(p[s], name) for p in by_pair.values()] for s in ("parent", "change")}
        med = {s: quantile(v, 0.5) for s, v in side.items()}
        q = {s: (quantile(v, 0.25), quantile(v, 0.75)) for s, v in side.items()}
        ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
        worse = ratio < 1 - bound if better == "higher" else ratio > 1 + bound
        improved = ratio > 1 + bound if better == "higher" else ratio < 1 - bound
        line = (
            f"  {name:22} parent {med['parent']:.6g} [{q['parent'][0]:.6g}, {q['parent'][1]:.6g}]"
            f"  change {med['change']:.6g} [{q['change'][0]:.6g}, {q['change'][1]:.6g}]"
            f"  ratio {ratio:.4f}"
        )
        if name in JUDGED:
            sign = 1 if better == "higher" else -1
            won = sum(
                sign * (value(p["change"], name) - value(p["parent"], name)) > 0
                for p in by_pair.values()
            )
            iqr = q["parent"][1] - q["parent"][0]
            beyond = abs(med["change"] - med["parent"]) > iqr
            claimable = 10 * won >= 9 * len(by_pair) and beyond
            ratios = [
                value(p["change"], name) / value(p["parent"], name)
                for p in by_pair.values()
                if value(p["parent"], name)
            ]
            if ratios:
                line += (
                    f"  pair ratios {quantile(ratios, 0.5):.4f}"
                    f" [{quantile(ratios, 0.25):.4f}, {quantile(ratios, 0.75):.4f}]"
                )
            line += (
                f"  won {won}/{len(by_pair)}  medians apart by more than parent IQR: {beyond}"
                f"  improved beyond the {bound:.0%} bound: {improved}"
                f"  claimable: {'yes' if claimable else 'no'}"
            )
        if worse:
            line += f"  FAIL worse than the {bound:.0%} bound"
            failed = True
        print(line)
    slow = []
    for s in ("parent", "change"):
        floor = SLOW * quantile([value(p[s], "work_per_s") for p in by_pair.values()], 0.75)
        slow += [
            f'pair {pair} {s} {value(sides[s], "work_per_s"):.6g}'
            for pair, sides in sorted(by_pair.items())
            if value(sides[s], "work_per_s") < floor
        ]
    print(
        f"  slow runs (work_per_s below {SLOW}x their side's upper quartile):"
        f" {', '.join(slow) or 'none'}"
    )
sys.exit(1 if failed else 0)
EOF
