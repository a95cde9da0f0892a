#!/usr/bin/env bash
# fabric_smoke.sh — end-to-end smoke test of the sharded search fabric:
# build cmd/servemodel and cmd/latmodel, start TWO servemodel nodes on
# loopback ports, and check that a search fanned out over shards — first
# in-process, then across both nodes — reproduces the plain local run
# byte-for-byte. A third node with a single search slot must run more
# shards than it has slots, through its admission queue, and still
# reproduce the local run byte-for-byte. A traced fan-out
# (-fabrictrace) must assemble one cross-node Perfetto trace: both nodes
# export spans at /v1/trace/{id} and the critical-path report attributes
# the coordinator's wall time exactly. Also checks the nodes' shard
# counters moved, that a malformed /v1/shard body answers 400, and that
# SIGTERM still shuts the nodes down cleanly. CI runs this via
# `make fabric-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
PORT1="${FABRIC_SMOKE_PORT1:-18374}"
PORT2="${FABRIC_SMOKE_PORT2:-18375}"
PORT3="${FABRIC_SMOKE_PORT3:-18376}"
ADDR1="127.0.0.1:${PORT1}"
ADDR2="127.0.0.1:${PORT2}"
ADDR3="127.0.0.1:${PORT3}"
DIR="$(mktemp -d)"
trap 'kill "${PID1:-}" "${PID2:-}" "${PID3:-}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o "$DIR/servemodel" ./cmd/servemodel
go build -o "$DIR/latmodel" ./cmd/latmodel

"$DIR/servemodel" -addr "$ADDR1" -nodename node1 -draintimeout 5s >"$DIR/node1.log" 2>&1 &
PID1=$!
"$DIR/servemodel" -addr "$ADDR2" -nodename node2 -draintimeout 5s >"$DIR/node2.log" 2>&1 &
PID2=$!

wait_up() { # addr pid logfile
    for i in $(seq 1 50); do
        if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "fabric-smoke: node on $1 exited early:" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "fabric-smoke: node on $1 never became healthy" >&2
    exit 1
}
wait_up "$ADDR1" "$PID1" "$DIR/node1.log"
wait_up "$ADDR2" "$PID2" "$DIR/node2.log"

# The reference: one plain local search. A modest budget keeps the smoke
# fast; the workload and options must match the sharded runs exactly.
LAYER=(-b 64 -k 96 -c 128 -budget 4000)
"$DIR/latmodel" "${LAYER[@]}" >"$DIR/local.out"
grep -q 'search: .* valid' "$DIR/local.out" || {
    echo "fabric-smoke: reference run printed no search line:" >&2
    cat "$DIR/local.out" >&2
    exit 1
}

# In-process fan-out: -shards 4 must be byte-identical to the plain run.
"$DIR/latmodel" "${LAYER[@]}" -shards 4 >"$DIR/sharded.out"
diff -u "$DIR/local.out" "$DIR/sharded.out" || {
    echo "fabric-smoke: -shards 4 diverged from the local search" >&2
    exit 1
}

# Remote fan-out: the same shards executed by the two nodes.
"$DIR/latmodel" "${LAYER[@]}" -shards 4 -nodes "http://${ADDR1},http://${ADDR2}" >"$DIR/remote.out"
diff -u "$DIR/local.out" "$DIR/remote.out" || {
    echo "fabric-smoke: remote fan-out diverged from the local search" >&2
    exit 1
}

# Both nodes must have executed at least one shard (round-robin placement
# lands 2 of the 4 on each).
for ADDR in "$ADDR1" "$ADDR2"; do
    METRICS=$(curl -fsS "http://${ADDR}/metrics")
    echo "$METRICS" | grep -q '^servemodel_fabric_shards_total [1-9]' || {
        echo "fabric-smoke: node $ADDR reports no executed shards" >&2
        echo "$METRICS" | grep '^servemodel_fabric' >&2 || true
        exit 1
    }
done

# More shards than execution slots: a node admitting one search at a time
# (-maxconcurrent 1) queues the coordinator's 3 shards behind each other and
# must still reproduce the plain local run byte-for-byte, executing all 3.
"$DIR/servemodel" -addr "$ADDR3" -draintimeout 5s -maxconcurrent 1 >"$DIR/node3.log" 2>&1 &
PID3=$!
wait_up "$ADDR3" "$PID3" "$DIR/node3.log"
"$DIR/latmodel" "${LAYER[@]}" -shards 3 -nodes "http://${ADDR3}" >"$DIR/oneslot.out" 2>"$DIR/oneslot.err"
diff -u "$DIR/local.out" "$DIR/oneslot.out" || {
    echo "fabric-smoke: one-slot node run diverged from the local search" >&2
    cat "$DIR/oneslot.err" >&2
    exit 1
}
METRICS=$(curl -fsS "http://${ADDR3}/metrics")
SHARDS=$(echo "$METRICS" | sed -n 's/^servemodel_fabric_shards_total \([0-9]*\)$/\1/p')
[ "${SHARDS:-0}" -ge 3 ] || {
    echo "fabric-smoke: one-slot node executed ${SHARDS:-0} shards, want >= 3" >&2
    echo "$METRICS" | grep '^servemodel_fabric' >&2 || true
    cat "$DIR/oneslot.err" >&2
    exit 1
}
kill -TERM "$PID3"
wait "$PID3" || { echo "fabric-smoke: one-slot node exited non-zero on SIGTERM" >&2; exit 1; }
PID3=""

# Fleet tracing: the same remote fan-out run with -fabrictrace must keep
# stdout byte-identical (spans are pure observation) while assembling a
# cross-node Perfetto trace. Both nodes must export spans under the ONE
# trace id, and the assembled critical-path report must attribute the
# coordinator's wall time exactly (diff_ns == 0).
"$DIR/latmodel" "${LAYER[@]}" -shards 4 -nodes "http://${ADDR1},http://${ADDR2}" \
    -fabrictrace "$DIR/trace.json" >"$DIR/traced.out" 2>"$DIR/traced.err"
diff -u "$DIR/local.out" "$DIR/traced.out" || {
    echo "fabric-smoke: traced fan-out diverged from the local search" >&2
    cat "$DIR/traced.err" >&2
    exit 1
}
TID=$(sed -n 's/^fabrictrace: trace \([0-9a-f]\{32\}\).*/\1/p' "$DIR/traced.err")
[ -n "$TID" ] || {
    echo "fabric-smoke: -fabrictrace printed no trace id:" >&2
    cat "$DIR/traced.err" >&2
    exit 1
}
for ADDR in "$ADDR1" "$ADDR2"; do
    SPANS=$(curl -fsS "http://${ADDR}/v1/trace/${TID}" | jq '.spans | length')
    [ "${SPANS:-0}" -ge 1 ] || {
        echo "fabric-smoke: node $ADDR exported ${SPANS:-0} spans for trace $TID" >&2
        exit 1
    }
done
jq -e '(.traceEvents | length) > 0
       and .critical_path.wall_ns > 0
       and .critical_path.diff_ns == 0
       and (.critical_path.nodes | length) >= 3' "$DIR/trace.json" >/dev/null || {
    echo "fabric-smoke: assembled trace or critical path malformed:" >&2
    jq '.critical_path' "$DIR/trace.json" >&2 || cat "$DIR/trace.json" >&2
    exit 1
}

# A malformed shard body must answer 400, not crash the node.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://${ADDR1}/v1/shard" -d '{"nope":1}')
[ "$CODE" = "400" ] || { echo "fabric-smoke: malformed shard request got $CODE, want 400" >&2; exit 1; }

# Graceful shutdown of both nodes.
kill -TERM "$PID1" "$PID2"
for PID in "$PID1" "$PID2"; do
    if ! wait "$PID"; then
        echo "fabric-smoke: node $PID exited non-zero on SIGTERM:" >&2
        cat "$DIR"/node*.log >&2
        exit 1
    fi
done
PID1="" PID2=""
echo "fabric-smoke: OK"
