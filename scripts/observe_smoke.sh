#!/bin/sh
# Observatory smoke test: run the UC1 observe scenario with a live
# collector endpoint, fetch /observatory.json, and assert (a) every hop
# of the chain is named in the snapshot, (b) the mid-run program swap is
# localized to the attacked switch, and (c) attestctl top/paths render
# the same collector state. Run via `make observe-smoke` (part of tier-1
# `make test`).
set -eu

cd "$(dirname "$0")/.."

HOPS=4
ATTACK=sw2   # default attack target for a 4-hop chain (the middle hop)

TMP="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "observe-smoke: building perasim and attestctl"
go build -o "$TMP/perasim" ./cmd/perasim
go build -o "$TMP/attestctl" ./cmd/attestctl

# The poll below may run before the background redirect creates the
# log, so create it first.
: >"$TMP/stderr"

# :0 picks a free port; -telemetry-hold keeps the collector's
# /observatory.json up after the run, and the "run complete" stderr line
# carries the bound URL.
"$TMP/perasim" -observe -observe-hops $HOPS -observe-packets 96 \
    -telemetry 127.0.0.1:0 -telemetry-hold \
    >"$TMP/stdout" 2>"$TMP/stderr" &
PID=$!

URL=""
for _ in $(seq 1 100); do
    URL=$(sed -n 's/.*run complete; telemetry still serving on \(http:[^ ]*\).*/\1/p' "$TMP/stderr")
    [ -n "$URL" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "observe-smoke: perasim exited early"; cat "$TMP/stderr"; exit 1; }
    sleep 0.2
done
if [ -z "$URL" ]; then
    echo "observe-smoke: endpoint never came up"
    cat "$TMP/stderr"
    exit 1
fi
BASE="${URL%/metrics}"
echo "observe-smoke: fetching $BASE/observatory.json"

if command -v curl >/dev/null 2>&1; then
    curl -fsS "$BASE/observatory.json" >"$TMP/snapshot.json"
else
    wget -qO "$TMP/snapshot.json" "$BASE/observatory.json"
fi

# (a) Every hop of the chain appears in the collector's health rows.
i=1
while [ $i -le $HOPS ]; do
    grep -q "\"place\": \"sw$i\"" "$TMP/snapshot.json" || {
        echo "observe-smoke: FAIL — hop sw$i missing from collector snapshot"
        exit 1
    }
    i=$((i + 1))
done

# (b) The program swap is localized to the attacked switch.
grep -q "\"localization\"" "$TMP/snapshot.json" || {
    echo "observe-smoke: FAIL — no localization in snapshot"
    exit 1
}
sed -n '/"localization"/,$p' "$TMP/snapshot.json" | grep -q "\"place\": \"$ATTACK\"" || {
    echo "observe-smoke: FAIL — compromise not localized to $ATTACK:"
    sed -n '/"localization"/,$p' "$TMP/snapshot.json"
    exit 1
}
grep -q "localized: $ATTACK" "$TMP/stderr" || {
    echo "observe-smoke: FAIL — perasim did not report the localization"
    exit 1
}

# (c) attestctl renders the same collector live.
"$TMP/attestctl" top -collector "$BASE" -n 1 >"$TMP/top" 2>&1 || {
    echo "observe-smoke: FAIL — attestctl top errored:"; cat "$TMP/top"; exit 1
}
grep -q "LOCALIZED: $ATTACK" "$TMP/top" || {
    echo "observe-smoke: FAIL — attestctl top missing localization:"; cat "$TMP/top"; exit 1
}
grep -q "sw$HOPS" "$TMP/top" || {
    echo "observe-smoke: FAIL — attestctl top missing hop rows"; exit 1
}
"$TMP/attestctl" paths -collector "$BASE" -n 2 >"$TMP/paths" 2>&1 || {
    echo "observe-smoke: FAIL — attestctl paths errored:"; cat "$TMP/paths"; exit 1
}
grep -q "FAIL @ $ATTACK" "$TMP/paths" || {
    echo "observe-smoke: FAIL — attestctl paths missing the failing trace:"; cat "$TMP/paths"; exit 1
}

echo "observe-smoke: OK (all $HOPS hops reported, compromise localized to $ATTACK)"
