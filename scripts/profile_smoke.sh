#!/bin/sh
# Continuous-profiler smoke test: run the UC1 throughput scenario with
# -profile so the timed appraisal phase executes under a stage-labeled
# CPU capture, then prove the attribution three ways — /profile.json
# must say the hot path is mostly stage-labeled with a verify-stage row,
# `attestctl profile top` must render the same live state, and the raw
# cpu.pprof artifact downloaded from /profile/pprof must re-summarize
# OFFLINE (zero-dependency reader, no live process state) to the same
# hotspot. Run via `make profile-smoke` (part of tier-1 `make test`).
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "profile-smoke: building perasim and attestctl"
go build -o "$TMP/perasim" ./cmd/perasim
go build -o "$TMP/attestctl" ./cmd/attestctl

# The poll below may run before the background redirect creates the
# log, so create it first.
: >"$TMP/stderr"

# Unique chains (packets == flows, so every signature is new to the
# memo) keep ed25519 verification genuinely hot for the whole timed
# phase — the corpus the profiler is supposed to attribute.
"$TMP/perasim" -uc throughput -workers 2 -packets 2000 -flows 2000 \
    -profile -telemetry 127.0.0.1:0 -telemetry-hold \
    >"$TMP/stdout" 2>"$TMP/stderr" &
PID=$!

URL=""
for _ in $(seq 1 150); do
    URL=$(sed -n 's/.*run complete; telemetry still serving on \(http:[^ ]*\).*/\1/p' "$TMP/stderr")
    [ -n "$URL" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "profile-smoke: perasim exited early"; cat "$TMP/stderr"; exit 1; }
    sleep 0.2
done
[ -n "$URL" ] || { echo "profile-smoke: endpoint never came up"; cat "$TMP/stderr"; exit 1; }
BASE="${URL%/metrics}"

# The raw wire surface: /profile.json serves the capture summary.
curl -fsS "$BASE/profile.json" >"$TMP/profile.json" || {
    echo "profile-smoke: FAIL — GET /profile.json errored"; cat "$TMP/stderr"; exit 1
}
for want in '"labeled_share"' '"hotspot"' '"stages"' '"verify"'; do
    grep -q "$want" "$TMP/profile.json" || {
        echo "profile-smoke: FAIL — $want missing from /profile.json:"; cat "$TMP/profile.json"; exit 1
    }
done

# A bad query must come back as the application/json error contract,
# not an HTML error page.
curl -fsS "$BASE/profile.json?window=banana" -o /dev/null 2>/dev/null && {
    echo "profile-smoke: FAIL — bad window parameter did not 400"; exit 1
}
curl -sS -i "$BASE/profile.json?window=banana" | grep -qi "content-type: application/json" || {
    echo "profile-smoke: FAIL — /profile.json error is not application/json"; exit 1
}

# Live render: the timed phase must be mostly stage-labeled CPU with a
# verify-stage row (UC1's cost center is chain verification).
"$TMP/attestctl" profile top -collector "$BASE" >"$TMP/live" 2>&1 || {
    echo "profile-smoke: FAIL — attestctl profile top errored:"; cat "$TMP/live"; exit 1
}
grep -q "stage-labeled" "$TMP/live" || {
    echo "profile-smoke: FAIL — no CPU captured:"; cat "$TMP/live"; exit 1
}
grep -q "  verify" "$TMP/live" || {
    echo "profile-smoke: FAIL — no verify-stage attribution:"; cat "$TMP/live"; exit 1
}
LABELED=$(sed -n 's/.* \([0-9][0-9]*\)% stage-labeled.*/\1/p' "$TMP/live")
[ -n "$LABELED" ] && [ "$LABELED" -ge 60 ] || {
    echo "profile-smoke: FAIL — only ${LABELED:-0}% of CPU stage-labeled (want >= 60%):"
    cat "$TMP/live"; exit 1
}
HOTSPOT=$(sed -n 's/.*hotspot \([^ ]*\) .*/\1/p' "$TMP/live")
[ -n "$HOTSPOT" ] || { echo "profile-smoke: FAIL — no hotspot named:"; cat "$TMP/live"; exit 1; }

# Offline half: download the raw cpu.pprof artifact and re-summarize it
# with no live process — the zero-dep reader must agree on the hotspot.
curl -fsS "$BASE/profile/pprof?kind=cpu" -o "$TMP/cpu.pprof" || {
    echo "profile-smoke: FAIL — GET /profile/pprof?kind=cpu errored"; exit 1
}
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""

"$TMP/attestctl" profile top -file "$TMP/cpu.pprof" >"$TMP/offline" 2>&1 || {
    echo "profile-smoke: FAIL — offline decode errored:"; cat "$TMP/offline"; exit 1
}
grep -q "  verify" "$TMP/offline" || {
    echo "profile-smoke: FAIL — offline summary has no verify stage:"; cat "$TMP/offline"; exit 1
}
grep -qF "hotspot $HOTSPOT " "$TMP/offline" || {
    echo "profile-smoke: FAIL — offline hotspot disagrees with live ($HOTSPOT):"
    cat "$TMP/offline"; exit 1
}

echo "profile-smoke: OK (${LABELED}% of hot-path CPU stage-labeled; live and offline agree on hotspot $HOTSPOT)"
