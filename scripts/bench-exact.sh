#!/usr/bin/env bash
# Runs each benchmark workload once (`--seed 42 --seconds 1`) and fails
# unless its seed-deterministic end-to-end metrics equal their pinned values
# exactly: msgs_per_commit, auth_bytes_per_commit, vlat_ms_p50 and
# vlat_ms_tail. They are counts and virtual-time latencies, so any change in
# protocol behaviour or in the authenticator accounting moves them, and no
# amount of machine noise does. A run whose own oracle fails (safety,
# transaction accounting, counts repeating across units) fails here too, and
# so does a run whose diagnostics line counts a node committing a
# transaction it had already committed (`tx_recommits_per_unit` ≠ 0).
#
# Usage:
#   scripts/bench-exact.sh
#
# A PR that changes behaviour on purpose re-pins the table below and says
# why; every other PR leaves it alone.
set -uo pipefail
cd "$(dirname "$0")/.."

# The sim_load p50 and both sim_backlog latencies were re-pinned when a
# leader's batch began to skip what the uncommitted chain it extends already
# carries (sim_load p50 6.13 → 5.245; sim_backlog 89.0 / 164.0 → 66.0 /
# 117.0): blocks carry only new work, so queues drain faster.
# workload       msgs_per_commit     auth_bytes_per_commit  vlat_ms_p50  vlat_ms_tail
PINNED="
sim_steady       1390.3684210526317  82138.1052631579       2.0          3.0
sim_viewchange   285.47457627118644  20015.593220338982     20.0         30.0
sim_load         63.63157894736842   4562.526315789473      5.245        13.013
sim_backlog      12.363636363636363  896.2424242424242      66.0         117.0
wire_mesh        68.25               4803.0                 7.0          10.0
"
METRICS=(msgs_per_commit auth_bytes_per_commit vlat_ms_p50 vlat_ms_tail)

# A build of `benchmark/` rewrites benchmark/Cargo.lock; when the file is
# unmodified now, it is put back on exit, so a run leaves the tree as found.
if git diff --quiet -- benchmark/Cargo.lock; then
    trap 'git checkout --quiet -- benchmark/Cargo.lock' EXIT
fi
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml || exit 1
failed=0
while read -r workload pinned_values; do
    [ -n "$workload" ] || continue
    read -r -a pinned <<< "$pinned_values"
    # The first line of `run` is the diagnostics object, the last the result.
    if ! output=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --seed 42 --seconds 1); then
        echo "FAIL $workload: the run's oracle failed (non-zero exit)"
        failed=1
        continue
    fi
    result=$(tail -n 1 <<< "$output")
    recommits=$(head -n 1 <<< "$output" | sed -n 's/.*"tx_recommits_per_unit":\([0-9]*\).*/\1/p')
    if [ "$recommits" = "0" ]; then
        echo "ok   $workload tx_recommits_per_unit = 0"
    else
        echo "FAIL $workload tx_recommits_per_unit: got ${recommits:-nothing}, must be 0"
        failed=1
    fi
    for i in "${!METRICS[@]}"; do
        metric=${METRICS[$i]}
        got=$(sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p" <<< "$result")
        if [ "$got" = "${pinned[$i]}" ]; then
            echo "ok   $workload $metric = $got"
        else
            echo "FAIL $workload $metric: got ${got:-nothing}, pinned ${pinned[$i]}"
            failed=1
        fi
    done
done <<< "$PINNED"
exit "$failed"
