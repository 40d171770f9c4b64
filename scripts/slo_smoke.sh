#!/bin/sh
# Trust-decay smoke test: run the SLO scenario with recovery disabled so
# the frozen switch stays dark, then assert over the live endpoints that
# (a) /coverage.json marks exactly the frozen place lapsed, (b)
# /alerts.json shows a firing staleness alert for it, (c) attestctl
# coverage/alerts render the same watchdog state, and (d) the audit
# ledger holds alert_fired records and still verifies. Run via
# `make slo-smoke` (part of tier-1 `make test`).
set -eu

cd "$(dirname "$0")/.."

FROZEN=sw2   # default freeze target for a 4-hop chain (the middle hop)

TMP="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "slo-smoke: building perasim and attestctl"
go build -o "$TMP/perasim" ./cmd/perasim
go build -o "$TMP/attestctl" ./cmd/attestctl

# The poll below may run before the background redirect creates the
# log, so create it first.
: >"$TMP/stderr"

# -slo-recover -1 leaves the alert firing and the place lapsed; :0 picks
# a free port and -telemetry-hold keeps /coverage.json and /alerts.json
# up after the run. The "run complete" stderr line carries the URL.
"$TMP/perasim" -slo -slo-packets 96 -slo-recover -1 \
    -telemetry 127.0.0.1:0 -telemetry-hold -audit "$TMP/trail.jsonl" \
    >"$TMP/stdout" 2>"$TMP/stderr" &
PID=$!

URL=""
for _ in $(seq 1 100); do
    URL=$(sed -n 's/.*run complete; telemetry still serving on \(http:[^ ]*\).*/\1/p' "$TMP/stderr")
    [ -n "$URL" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "slo-smoke: perasim exited early"; cat "$TMP/stderr"; exit 1; }
    sleep 0.2
done
if [ -z "$URL" ]; then
    echo "slo-smoke: endpoint never came up"
    cat "$TMP/stderr"
    exit 1
fi
BASE="${URL%/metrics}"
echo "slo-smoke: fetching $BASE/coverage.json and $BASE/alerts.json"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1" >"$2"
    else
        wget -qO "$2" "$1"
    fi
}
fetch "$BASE/coverage.json" "$TMP/coverage.json"
fetch "$BASE/alerts.json" "$TMP/alerts.json"

# (a) Exactly the frozen place is lapsed; the healthy hops are fresh.
grep -q '"lapsed": 1' "$TMP/coverage.json" || {
    echo "slo-smoke: FAIL — coverage does not count exactly 1 lapsed place:"
    cat "$TMP/coverage.json"; exit 1
}
sed -n "/\"place\": \"$FROZEN\"/,/}/p" "$TMP/coverage.json" | grep -q '"status": "lapsed"' || {
    echo "slo-smoke: FAIL — $FROZEN not lapsed in coverage:"
    cat "$TMP/coverage.json"; exit 1
}

# (b) A staleness alert for the frozen place is firing.
grep -q '"rule": "staleness-threshold"' "$TMP/alerts.json" || {
    echo "slo-smoke: FAIL — no staleness alert:"; cat "$TMP/alerts.json"; exit 1
}
grep -q '"state": "firing"' "$TMP/alerts.json" || {
    echo "slo-smoke: FAIL — no firing alert:"; cat "$TMP/alerts.json"; exit 1
}
grep -q "\"place\": \"$FROZEN\"" "$TMP/alerts.json" || {
    echo "slo-smoke: FAIL — alert not attributed to $FROZEN:"; cat "$TMP/alerts.json"; exit 1
}

# (c) attestctl renders the same watchdog live.
"$TMP/attestctl" coverage -collector "$BASE" >"$TMP/coverage.txt" 2>&1 || {
    echo "slo-smoke: FAIL — attestctl coverage errored:"; cat "$TMP/coverage.txt"; exit 1
}
grep -q "$FROZEN" "$TMP/coverage.txt" && grep -q "lapsed" "$TMP/coverage.txt" || {
    echo "slo-smoke: FAIL — attestctl coverage missing the lapsed row:"; cat "$TMP/coverage.txt"; exit 1
}
"$TMP/attestctl" alerts -collector "$BASE" >"$TMP/alerts.txt" 2>&1 || {
    echo "slo-smoke: FAIL — attestctl alerts errored:"; cat "$TMP/alerts.txt"; exit 1
}
grep -q "staleness-threshold" "$TMP/alerts.txt" && grep -q "firing" "$TMP/alerts.txt" || {
    echo "slo-smoke: FAIL — attestctl alerts missing the firing alert:"; cat "$TMP/alerts.txt"; exit 1
}

# (d) The sealed ledger verifies and holds the alert lifecycle records.
grep -q '"event":"alert_fired"' "$TMP/trail.jsonl" || {
    echo "slo-smoke: FAIL — no alert_fired record in the audit ledger"; exit 1
}
"$TMP/attestctl" audit verify -ledger "$TMP/trail.jsonl" >"$TMP/verify.txt" 2>&1 || {
    echo "slo-smoke: FAIL — ledger verification failed:"; cat "$TMP/verify.txt"; exit 1
}

echo "slo-smoke: OK ($FROZEN lapsed, staleness alert firing, ledger verified)"
