#!/bin/sh
# Distributed-tracing smoke test: run attestd and appraised as separate
# processes over real TCP sockets, both tracing every flow, drive one
# attestation round with attestctl (which injects the trace context into
# the challenge and appraise frames), then assert via `attestctl trace`
# that the two processes' span rings merge into ONE trace — same
# flow-derived trace ID on both sides, attester and appraiser span trees
# present, critical-path breakdown rendered. A second round must then be
# answered by appraised's verification memo: its /metrics count one full
# verification per fresh signature and one for the cached quote. Run via
# `make trace-smoke` (part of tier-1 `make test`).
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
ATT_PID=""
APPR_PID=""
cleanup() {
    [ -n "$ATT_PID" ] && kill "$ATT_PID" 2>/dev/null || true
    [ -n "$APPR_PID" ] && kill "$APPR_PID" 2>/dev/null || true
    [ -n "$ATT_PID" ] && wait "$ATT_PID" 2>/dev/null || true
    [ -n "$APPR_PID" ] && wait "$APPR_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "trace-smoke: building attestd, appraised, attestctl"
go build -o "$TMP/attestd" ./cmd/attestd
go build -o "$TMP/appraised" ./cmd/appraised
go build -o "$TMP/attestctl" ./cmd/attestctl

# extract waits for a sed pattern to produce output from a log file.
extract() { # file pattern
    _out=""
    for _ in $(seq 1 100); do
        _out=$(sed -n "$2" "$1")
        [ -n "$_out" ] && break
        sleep 0.1
    done
    [ -n "$_out" ] || { echo "trace-smoke: never saw $2 in $1"; cat "$1"; exit 1; }
    printf '%s' "$_out"
}

# extract may poll a log before the background redirect creates it.
: >"$TMP/attestd.out"
: >"$TMP/appraised.out"
"$TMP/attestd" -listen 127.0.0.1:0 -name sw1 -program firewall \
    -telemetry 127.0.0.1:0 -trace 1 >"$TMP/attestd.out" 2>&1 &
ATT_PID=$!
ATT_ADDR=$(extract "$TMP/attestd.out" 's/.*listening on \([0-9.:]*\).*/\1/p')
ATT_TELEM=$(extract "$TMP/attestd.out" 's|.*telemetry serving on \(http://[0-9.:]*\)/metrics.*|\1|p')

# attestd's provisioning stdout IS the appraised config format.
for _ in $(seq 1 100); do
    grep -q '^golden .* tables ' "$TMP/attestd.out" && break
    sleep 0.1
done
grep '^key \|^golden ' "$TMP/attestd.out" >"$TMP/golden.conf"
[ -s "$TMP/golden.conf" ] || { echo "trace-smoke: no provisioning lines"; cat "$TMP/attestd.out"; exit 1; }

"$TMP/appraised" -listen 127.0.0.1:0 -config "$TMP/golden.conf" \
    -telemetry 127.0.0.1:0 -trace 1 >"$TMP/appraised.out" 2>&1 &
APPR_PID=$!
APPR_ADDR=$(extract "$TMP/appraised.out" 's/.*listening on \([0-9.:]*\).*/\1/p')
APPR_TELEM=$(extract "$TMP/appraised.out" 's|.*telemetry serving on \(http://[0-9.:]*\)/metrics.*|\1|p')

echo "trace-smoke: attester $ATT_ADDR ($ATT_TELEM), appraiser $APPR_ADDR ($APPR_TELEM)"

"$TMP/attestctl" -attester "$ATT_ADDR" -appraiser "$APPR_ADDR" \
    -claims hardware,program,tables -subject sw1 >"$TMP/round.out" 2>&1 || {
    echo "trace-smoke: FAIL — attestation round errored:"; cat "$TMP/round.out"; exit 1
}
grep -q "result PASS" "$TMP/round.out" || {
    echo "trace-smoke: FAIL — round did not PASS:"; cat "$TMP/round.out"; exit 1
}
TID=$(sed -n 's/^attestctl: trace \([0-9a-f]\{32\}\).*/\1/p' "$TMP/round.out")
[ -n "$TID" ] || { echo "trace-smoke: no trace ID printed"; cat "$TMP/round.out"; exit 1; }
echo "trace-smoke: round PASS, trace $TID"

# The tree must merge spans from BOTH processes under the one trace.
"$TMP/attestctl" trace -endpoints "$ATT_TELEM,$APPR_TELEM" "$TID" >"$TMP/tree.out" 2>&1 || {
    echo "trace-smoke: FAIL — attestctl trace errored:"; cat "$TMP/tree.out"; exit 1
}
for want in "trace $TID" "sw1/attest" "sw1/sign" "appraised/appraise" "appraised/verdict" "critical path"; do
    grep -q "$want" "$TMP/tree.out" || {
        echo "trace-smoke: FAIL — '$want' missing from span tree:"; cat "$TMP/tree.out"; exit 1
    }
done

# Every merged span carries the same trace ID: one multi-process trace.
"$TMP/attestctl" trace -json -endpoints "$ATT_TELEM,$APPR_TELEM" "$TID" >"$TMP/tree.json" 2>&1
if grep '"trace_id"' "$TMP/tree.json" | grep -qv "$TID"; then
    echo "trace-smoke: FAIL — foreign trace ID in merged spans:"; cat "$TMP/tree.json"; exit 1
fi

# The flow form of the argument resolves to the same trace.
FLOW=$(sed -n 's/^attestctl: nonce \([0-9a-f]*\).*/\1/p' "$TMP/round.out")
"$TMP/attestctl" trace -endpoints "$ATT_TELEM" "$FLOW" >"$TMP/byflow.out" 2>&1
grep -q "trace $TID" "$TMP/byflow.out" || {
    echo "trace-smoke: FAIL — flow arg did not resolve to trace $TID:"; cat "$TMP/byflow.out"; exit 1
}

# A second round: the switch caches its hardware claim, so the quote
# arrives byte for byte as before and the appraiser's memo answers it.
# Over both rounds appraised verified in full exactly two fresh evidence
# signatures and one quote.
"$TMP/attestctl" -attester "$ATT_ADDR" -appraiser "$APPR_ADDR" \
    -claims hardware,program,tables -subject sw1 >"$TMP/round2.out" 2>&1 || {
    echo "trace-smoke: FAIL — second attestation round errored:"; cat "$TMP/round2.out"; exit 1
}
grep -q "result PASS" "$TMP/round2.out" || {
    echo "trace-smoke: FAIL — second round did not PASS:"; cat "$TMP/round2.out"; exit 1
}
if command -v curl >/dev/null 2>&1; then
    curl -fsS "$APPR_TELEM/metrics" >"$TMP/appraised.metrics"
else
    wget -qO "$TMP/appraised.metrics" "$APPR_TELEM/metrics"
fi
MISSES=$(sed -n 's/^pera_verify_memo_misses_total \([0-9]*\)$/\1/p' "$TMP/appraised.metrics")
[ "$MISSES" = 3 ] || {
    echo "trace-smoke: FAIL — pera_verify_memo_misses_total is '$MISSES', want 3 (two signatures, one quote):"
    grep pera_verify_memo "$TMP/appraised.metrics"; exit 1
}
echo "trace-smoke: second round PASS, the quote verified once ($MISSES full verifications)"

echo "trace-smoke: OK (one trace $TID across attestd + appraised)"
