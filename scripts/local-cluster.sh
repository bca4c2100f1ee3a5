#!/usr/bin/env bash
# Boots a local lumiere-node cluster on 127.0.0.1, waits for every node to
# finish, and judges the run with lumiere-verify (driver::cluster_verdict:
# prefix agreement across all nodes, commit floors, the O(nΔ) liveness
# envelope on wall-clock commit gaps and, under load, committed client
# transactions). Per-node logs and JSON summaries land in OUT_DIR.
#
# Usage:
#   scripts/local-cluster.sh [N] [TARGET]
#
# Environment overrides:
#   PROTOCOL      pacemaker protocol short name        (default: lumiere)
#   BASE_PORT     first listen port, node i gets +i    (default: 7700)
#   DELTA_MS      known message-delay bound in ms      (default: 20)
#   SEED          deterministic cluster keygen seed    (default: 42)
#   TIMEOUT_S     hard wall-clock cap on the whole run (default: 180)
#   OUT_DIR       logs/configs/summaries directory     (default: cluster-out)
#   LOAD_RATE     open-loop client load per node, txs/sec passed to every
#                 node as --load (default: off)
#
# Adversarial switches (all optional; ';'-separated lists because strategy
# JSON contains commas):
#   STRATEGIES    per-node --strategy specs, "i:spec;j:spec". A spec is a
#                 short name (silent-leader, crash, ...) or StrategyKind
#                 JSON ('1:{"CrashRecovery":{"down":{"from":0,...}}}').
#   SCHEDULE      a file holding AdversarySchedule JSON (the simulator's
#                 adversary, e.g. scripts/schedules/targeted-partition-4.json),
#                 passed to every node as --schedule: its corruptions pick
#                 each node's strategy and its delay rules hold messages on
#                 the sending side. Excludes STRATEGIES.
#   PLANTED_BUG   planted-bug name passed to every node; forces a release
#                 build with --features planted-bugs.
#   KILL_SCHEDULE crash/recovery injections, "i:kill_s[:restart_s];...":
#                 node i is SIGKILLed kill_s seconds after boot and, if
#                 restart_s is given, relaunched at restart_s. A killed node
#                 is excused from the floor and the envelope, and one never
#                 restarted from writing a summary.
#   RUN_FOR_S     fixed-duration mode: nodes run for this many seconds
#                 instead of stopping at TARGET commits (TARGET then acts
#                 as the minimum commit floor for honest nodes).
#   EXPECT_STALL  "1" inverts the liveness verdict: the run passes iff some
#                 honest node misses its floor or breaks the envelope
#                 (prints LIVENESS-STALL), as the planted-bug job expects.
#
# Exit code 0 means the oracles for the selected mode all passed.

set -euo pipefail

N="${1:-4}"
TARGET="${2:-50}"
PROTOCOL="${PROTOCOL:-lumiere}"
BASE_PORT="${BASE_PORT:-7700}"
DELTA_MS="${DELTA_MS:-20}"
SEED="${SEED:-42}"
TIMEOUT_S="${TIMEOUT_S:-180}"
OUT_DIR="${OUT_DIR:-cluster-out}"
STRATEGIES="${STRATEGIES:-}"
SCHEDULE="${SCHEDULE:-}"
PLANTED_BUG="${PLANTED_BUG:-}"
KILL_SCHEDULE="${KILL_SCHEDULE:-}"
RUN_FOR_S="${RUN_FOR_S:-}"
EXPECT_STALL="${EXPECT_STALL:-0}"
LOAD_RATE="${LOAD_RATE:-}"

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
NODE_BIN="target/release/lumiere-node"
VERIFY_BIN="target/release/lumiere-verify"

SCHEDULE_JSON=""
if [[ -n "$SCHEDULE" ]]; then
    if [[ -n "$STRATEGIES" ]]; then
        echo "ERROR: SCHEDULE and STRATEGIES are exclusive (a schedule names each node's strategy)" >&2
        exit 2
    fi
    SCHEDULE_JSON="$(cat "$SCHEDULE")"
fi

if [[ -n "$PLANTED_BUG" ]]; then
    # The planted code paths only exist behind the feature; always rebuild so
    # a stale stock binary cannot silently measure stock behaviour (the
    # binary itself also refuses --planted-bug on a stock build).
    echo "== building lumiere-node and lumiere-verify (release, --features planted-bugs) =="
    cargo build --release -p lumiere-runtime --features planted-bugs --bins
elif [[ ! -x "$NODE_BIN" || ! -x "$VERIFY_BIN" ]]; then
    echo "== building lumiere-node and lumiere-verify (release) =="
    cargo build --release -p lumiere-runtime --bins
fi

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

# Parse the ';'-separated per-node maps before anything can fail.
declare -A STRATEGY_OF KILL_AT RESTART_AT
IFS=';' read -ra strategy_entries <<< "$STRATEGIES"
for entry in "${strategy_entries[@]}"; do
    [[ -n "$entry" ]] && STRATEGY_OF["${entry%%:*}"]="${entry#*:}"
done
IFS=';' read -ra kill_entries <<< "$KILL_SCHEDULE"
for entry in "${kill_entries[@]}"; do
    [[ -z "$entry" ]] && continue
    IFS=':' read -r kid kat krestart <<< "$entry"
    KILL_AT["$kid"]="$kat"
    [[ -n "${krestart:-}" ]] && RESTART_AT["$kid"]="$krestart"
done

# The cleanup trap is installed BEFORE anything is spawned: an early exit
# (set -e, Ctrl-C, a failed config write mid-loop) must never leave orphaned
# lumiere-node processes behind. pids are tracked through pid files because
# restarted nodes are grandchildren; a pattern pkill is the last-resort
# sweep for anything that slipped past the pid files.
helper_pids=()
cleanup() {
    local pidfile pid
    for pid in "${helper_pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    for pidfile in "$OUT_DIR"/node*.pid; do
        [[ -f "$pidfile" ]] || continue
        pid="$(cat "$pidfile" 2>/dev/null)" || continue
        kill "$pid" 2>/dev/null || true
    done
    pkill -f "$NODE_BIN --config $OUT_DIR/" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

if [[ -n "$RUN_FOR_S" ]]; then
    TARGET_FIELD="null"
    RUN_TIMEOUT_MS=$(( RUN_FOR_S * 1000 ))
else
    TARGET_FIELD="$TARGET"
    # Per-node wall-clock cap: leave the shell watchdog some slack to collect
    # logs after a node gives up on its own.
    RUN_TIMEOUT_MS=$(( (TIMEOUT_S - 10 > 30 ? TIMEOUT_S - 10 : 30) * 1000 ))
fi

echo "== writing $N node configs (protocol=$PROTOCOL, target=$TARGET_FIELD commits) =="
for ((i = 0; i < N; i++)); do
    {
        printf '{'
        printf '"node_id":%d,"n":%d,"protocol":"%s","delta_ms":%d,"seed":%d,' \
            "$i" "$N" "$PROTOCOL" "$DELTA_MS" "$SEED"
        printf '"listen":"127.0.0.1:%d","peers":[' "$((BASE_PORT + i))"
        sep=""
        for ((j = 0; j < N; j++)); do
            [[ $j -eq $i ]] && continue
            printf '%s{"id":%d,"addr":"127.0.0.1:%d"}' "$sep" "$j" "$((BASE_PORT + j))"
            sep=","
        done
        printf '],"target_commits":%s,"run_timeout_ms":%d,"connect_timeout_ms":30000}' \
            "$TARGET_FIELD" "$RUN_TIMEOUT_MS"
    } > "$OUT_DIR/node$i.json"
done

boot_node() { # $1 = node id; appends to the node log, refreshes the pid file
    local i=$1
    local args=(--config "$OUT_DIR/node$i.json" --out "$OUT_DIR/summary$i.json")
    [[ -n "${STRATEGY_OF[$i]:-}" ]] && args+=(--strategy "${STRATEGY_OF[$i]}")
    [[ -n "$SCHEDULE_JSON" ]] && args+=(--schedule "$SCHEDULE_JSON")
    [[ -n "$PLANTED_BUG" ]] && args+=(--planted-bug "$PLANTED_BUG")
    [[ -n "$LOAD_RATE" ]] && args+=(--load "$LOAD_RATE")
    "$NODE_BIN" "${args[@]}" >> "$OUT_DIR/node$i.log" 2>&1 &
    echo $! > "$OUT_DIR/node$i.pid"
    # Keep the shell's job control from reporting scheduled SIGKILLs.
    disown
}

echo "== booting the cluster =="
for ((i = 0; i < N; i++)); do
    : > "$OUT_DIR/node$i.log"
    boot_node "$i"
done

# Fault injectors: one background helper per scheduled kill, hard-killing
# the current process of the node (SIGKILL — no graceful shutdown, this is
# the crash-recovery experiment) and optionally relaunching it later.
for kid in "${!KILL_AT[@]}"; do
    (
        sleep "${KILL_AT[$kid]}"
        pid="$(cat "$OUT_DIR/node$kid.pid" 2>/dev/null)" || exit 0
        echo "== fault injector: killing node $kid (pid $pid) at t=${KILL_AT[$kid]}s =="
        kill -9 "$pid" 2>/dev/null || true
        if [[ -n "${RESTART_AT[$kid]:-}" ]]; then
            sleep "$(( RESTART_AT[$kid] - KILL_AT[$kid] ))"
            echo "== fault injector: restarting node $kid at t=${RESTART_AT[$kid]}s =="
            boot_node "$kid"
        fi
    ) &
    helper_pids+=($!)
done

# Watchdog: the nodes bound themselves via run_timeout_ms, but a hung mesh
# connect or a wedged process must not hang CI — hard-kill past TIMEOUT_S.
# Liveness of the cluster is judged from the summaries, not exit codes
# (scheduled kills make exit codes meaningless); a node that dies without
# writing a summary is caught by lumiere-verify below.
deadline=$(( SECONDS + TIMEOUT_S ))
while :; do
    alive=0
    for pid in "${helper_pids[@]:-}"; do
        kill -0 "$pid" 2>/dev/null && alive=1
    done
    for ((i = 0; i < N; i++)); do
        pid="$(cat "$OUT_DIR/node$i.pid" 2>/dev/null)" || continue
        kill -0 "$pid" 2>/dev/null && alive=1
    done
    (( alive == 0 )) && break
    if (( SECONDS >= deadline )); then
        echo "ERROR: timeout after ${TIMEOUT_S}s; killing the cluster" >&2
        cleanup
        for ((i = 0; i < N; i++)); do
            echo "---- node $i log tail ----"
            tail -n 20 "$OUT_DIR/node$i.log" || true
        done
        exit 1
    fi
    sleep 1
done
wait 2>/dev/null || true

echo "== verifying commit logs =="
verify=("$VERIFY_BIN" "$OUT_DIR" --floor "$TARGET")
# Every killed node, tagged ":r" if restarted: only an untagged one may lack a summary.
killed="$(for k in "${!KILL_AT[@]}"; do printf '%s%s,' "$k" "${RESTART_AT[$k]:+:r}"; done)"
[[ -n "$killed" ]] && verify+=(--killed "$killed")
[[ "$EXPECT_STALL" == 1 ]] && verify+=(--expect-stall)
"${verify[@]}"
