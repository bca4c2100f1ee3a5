#!/usr/bin/env bash
# Boots a local lumiere-node cluster on 127.0.0.1, waits for every node to
# finish, and verifies the committed chains against the harness oracles:
# prefix agreement across all nodes, commit floors, and the O(nΔ) liveness
# envelope on wall-clock commit gaps. Per-node logs and JSON summaries land
# in OUT_DIR.
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
#                 node as --load; the verifier then also asserts that the
#                 honest nodes committed client transactions and, in a run
#                 with no strategies, fault plans or kills, that none of
#                 them committed a transaction twice (default: off)
#
# Adversarial switches (all optional; ';'-separated lists because strategy
# and fault-plan JSON contains commas):
#   STRATEGIES    per-node --strategy specs, "i:spec;j:spec". A spec is a
#                 short name (silent-leader, crash, ...) or StrategyKind
#                 JSON ('1:{"CrashRecovery":{"down":{"from":0,...}}}').
#   FAULT_PLANS   per-node --fault-plan JSON, "i:json;j:json".
#   PLANTED_BUG   planted-bug name passed to every node; forces a release
#                 build with --features planted-bugs.
#   KILL_SCHEDULE crash/recovery injections, "i:kill_s[:restart_s];...":
#                 node i is SIGKILLed kill_s seconds after boot and, if
#                 restart_s is given, relaunched at restart_s.
#   RUN_FOR_S     fixed-duration mode: nodes run for this many seconds
#                 instead of stopping at TARGET commits (TARGET then acts
#                 as the minimum commit floor for honest nodes).
#   EXPECT_STALL  "1" inverts the liveness verdict: the run passes iff some
#                 honest node misses its floor or breaks the envelope
#                 (prints LIVENESS-STALL). Used by the planted-bug
#                 calibration job.
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
FAULT_PLANS="${FAULT_PLANS:-}"
PLANTED_BUG="${PLANTED_BUG:-}"
KILL_SCHEDULE="${KILL_SCHEDULE:-}"
RUN_FOR_S="${RUN_FOR_S:-}"
EXPECT_STALL="${EXPECT_STALL:-0}"
LOAD_RATE="${LOAD_RATE:-}"

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
NODE_BIN="target/release/lumiere-node"

if [[ -n "$PLANTED_BUG" ]]; then
    # The planted code paths only exist behind the feature; always rebuild so
    # a stale stock binary cannot silently measure stock behaviour (the
    # binary itself also refuses --planted-bug on a stock build).
    echo "== building lumiere-node (release, --features planted-bugs) =="
    cargo build --release -p lumiere-runtime --features planted-bugs --bin lumiere-node
elif [[ ! -x "$NODE_BIN" ]]; then
    echo "== building lumiere-node (release) =="
    cargo build --release -p lumiere-runtime --bin lumiere-node
fi

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

# Parse the ';'-separated per-node maps before anything can fail.
declare -A STRATEGY_OF FAULT_OF KILL_AT RESTART_AT
parse_map() { # $1 = list, $2 = map name
    local -n map=$2
    local entry
    IFS=';' read -ra entries <<< "$1"
    for entry in "${entries[@]}"; do
        [[ -z "$entry" ]] && continue
        map["${entry%%:*}"]="${entry#*:}"
    done
}
parse_map "$STRATEGIES" STRATEGY_OF
parse_map "$FAULT_PLANS" FAULT_OF
join_keys() { # $1 = map name; prints its keys comma-separated
    local -n keymap=$1
    local out="" k
    for k in "${!keymap[@]}"; do out+="${out:+,}$k"; done
    printf '%s' "$out"
}
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
    [[ -n "${FAULT_OF[$i]:-}" ]] && args+=(--fault-plan "${FAULT_OF[$i]}")
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
# writing a summary is caught by the verifier below.
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
N="$N" TARGET="$TARGET" OUT_DIR="$OUT_DIR" DELTA_MS="$DELTA_MS" \
    EXPECT_STALL="$EXPECT_STALL" LOAD_RATE="$LOAD_RATE" \
    STRATEGY_IDS="$(join_keys STRATEGY_OF)" \
    FAULTED_IDS="$(join_keys FAULT_OF)" \
    KILLED_IDS="$(join_keys KILL_AT)" \
    python3 - <<'PY'
import json, os, sys

n = int(os.environ["N"])
target = int(os.environ["TARGET"])
out_dir = os.environ["OUT_DIR"]
delta_ms = int(os.environ["DELTA_MS"])
expect_stall = os.environ.get("EXPECT_STALL", "0") == "1"
load_rate = os.environ.get("LOAD_RATE", "")
corrupted = {int(i) for i in os.environ.get("STRATEGY_IDS", "").split(",") if i}
faulted = {int(i) for i in os.environ.get("FAULTED_IDS", "").split(",") if i}
killed = {int(i) for i in os.environ.get("KILLED_IDS", "").split(",") if i}

# The O(nΔ) liveness envelope — the same bound as
# lumiere_runtime::liveness_envelope and the fuzzer's liveness oracle.
bound_ms = delta_ms * (40 * n + 100)

def envelope_violation(summary):
    """First violated commit-trace gap, mirroring the Rust harness oracle."""
    commits = summary["commits"]
    if not commits:
        return f"committed nothing in {summary['wall_ms']:.0f} ms"
    if commits[0]["wall_ms"] > bound_ms:
        return f"first commit after {commits[0]['wall_ms']:.0f} ms"
    for a, b in zip(commits, commits[1:]):
        gap = b["wall_ms"] - a["wall_ms"]
        if gap > bound_ms:
            return f"{gap:.0f} ms stall between heights {a['height']} and {b['height']}"
    tail = summary["wall_ms"] - commits[-1]["wall_ms"]
    if tail > bound_ms:
        return f"{tail:.0f} ms stall after the last commit"
    return None

summaries = []
for i in range(n):
    path = os.path.join(out_dir, f"summary{i}.json")
    try:
        with open(path) as f:
            summaries.append(json.load(f))
    except OSError:
        sys.exit(f"ERROR: node {i} wrote no summary (crashed? see {out_dir}/node{i}.log)")
    s = summaries[-1]
    role = " corrupted" if i in corrupted else (" killed/restarted" if i in killed else "")
    print(f"node {i}{role}: committed {s['committed_height']} blocks, "
          f"final view {s['final_view']}, {s['wall_ms']:.0f} ms, "
          f"{s['gated_events']} gated events")

# Safety oracle: prefix agreement across ALL nodes, corrupted or not (the
# strategies under test are liveness adversaries; a fork is always fatal).
# Every pair on its common length, as driver::check_agreement does:
# prefix-compatibility is not transitive (a short chain can be compatible
# with two longer ones that contradict each other).
chains = [s["chain"] for s in summaries]
for i, a in enumerate(chains):
    for j in range(i + 1, n):
        common = min(len(a), len(chains[j]))
        if a[:common] != chains[j][:common]:
            sys.exit(f"ERROR: nodes {i} and {j} disagree on the committed prefix")

# Liveness oracles on the honest, never-killed nodes.
honest = [i for i in range(n) if i not in corrupted and i not in killed]
stalls = []
for i in honest:
    s = summaries[i]
    if s["committed_height"] < target:
        stalls.append(f"node {i} committed only {s['committed_height']} < {target} blocks")
        continue
    violation = envelope_violation(s)
    if violation:
        stalls.append(f"node {i}: {violation} (bound {bound_ms} ms)")

if expect_stall:
    if not stalls:
        sys.exit("ERROR: expected a liveness stall, but every honest node "
                 f"committed {target}+ blocks inside the {bound_ms} ms envelope")
    for s in stalls:
        print(f"LIVENESS-STALL: {s}")
    print(f"OK: stall detected as expected on {len(stalls)} honest node(s)")
    sys.exit(0)

if stalls:
    for s in stalls:
        print(f"ERROR: {s}", file=sys.stderr)
    sys.exit(1)

# Load oracle: under open-loop client load every honest node must have
# driven client transactions through to commit — an empty count means the
# batching path is broken even though empty blocks kept the chain growing.
if load_rate:
    for i in honest:
        s = summaries[i]
        if s["txs_committed"] <= 0:
            sys.exit(f"ERROR: node {i} committed no client transactions "
                     f"under --load {load_rate} ({s['txs_submitted']} submitted)")
        print(f"node {i} load: {s['txs_committed']}/{s['txs_submitted']} txs "
              f"committed, {s['tx_recommits']} recommits, "
              f"p50 {s['tx_latency_p50_ms']:.1f} ms, "
              f"p99 {s['tx_latency_p99_ms']:.1f} ms")
    # A leader's batch skips what the chain it extends already carries, so
    # in a fault-free run no honest node commits a transaction twice.
    if not (corrupted or faulted or killed):
        for i in honest:
            if summaries[i]["tx_recommits"] > 0:
                sys.exit(f"ERROR: node {i} committed {summaries[i]['tx_recommits']} "
                         f"transactions it had already committed")

# Killed-and-restarted nodes must have recovered *participation*: the
# post-restart summary shows the node re-synchronized views with the
# cluster (there is no block-sync subsystem, so a fresh process cannot
# commit blocks whose ancestors it missed while down — its chain stays a
# trivial prefix and the agreement check above already covers it).
for i in killed:
    if i in corrupted:
        continue
    if summaries[i]["final_view"] < 1:
        sys.exit(f"ERROR: restarted node {i} never re-entered a view after recovery")

print(f"OK: {len(honest)} honest nodes agree, committed >= {target} blocks, "
      f"and stayed inside the {bound_ms} ms O(nΔ) envelope")
PY
