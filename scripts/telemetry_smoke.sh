#!/bin/sh
# Telemetry smoke test: run the throughput use case with a live endpoint,
# scrape /metrics, and assert every pipeline stage reported in. This is
# the end-to-end proof that the observability wiring (switch counters,
# stage histograms, pool/cache/memo/netsim metrics, tracer) is intact —
# run via `make telemetry-smoke` (part of tier-1 `make test`).
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

echo "telemetry-smoke: building perasim"
go build -o "$TMP/perasim" ./cmd/perasim

# The poll below may run before the background redirect creates the
# log, so create it first.
: >"$TMP/stderr"

# :0 picks a free port; -telemetry-hold keeps serving after the run and
# prints the bound URL to stderr, so waiting for that line both finds
# the port and guarantees the run (and its metrics) is complete.
"$TMP/perasim" -uc throughput -packets 1000 -flows 8 -workers 2 \
    -trace 4 -telemetry 127.0.0.1:0 -telemetry-hold \
    >"$TMP/stdout" 2>"$TMP/stderr" &
PID=$!

URL=""
for _ in $(seq 1 100); do
    URL=$(sed -n 's/.*run complete; telemetry still serving on \(http:[^ ]*\).*/\1/p' "$TMP/stderr")
    [ -n "$URL" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "telemetry-smoke: perasim exited early"; cat "$TMP/stderr"; exit 1; }
    sleep 0.2
done
if [ -z "$URL" ]; then
    echo "telemetry-smoke: endpoint never came up"
    cat "$TMP/stderr"
    exit 1
fi
echo "telemetry-smoke: scraping $URL"

if command -v curl >/dev/null 2>&1; then
    curl -fsS "$URL" >"$TMP/metrics"
else
    wget -qO "$TMP/metrics" "$URL"
fi

# Every pipeline stage must be present, and the per-stage histograms
# (sign / verify / appraise) must have counted real observations.
for metric in \
    pera_packets_total \
    pera_attested_total \
    pera_sign_ops_total \
    pera_sign_memo_hits_total \
    pera_sign_seconds_bucket \
    pera_verify_seconds_count \
    pera_appraise_seconds_count \
    pera_pool_jobs_total \
    pera_pool_queue_depth \
    pera_evidence_cache_hits_total \
    pera_verify_memo_hits_total \
    pera_trace_recorded_total \
    netsim_deliveries_total
do
    grep -q "^$metric" "$TMP/metrics" || {
        echo "telemetry-smoke: FAIL — $metric missing from /metrics"
        exit 1
    }
done

for hist in pera_sign_seconds pera_verify_seconds pera_appraise_seconds; do
    awk -v m="${hist}_count" '$1 ~ "^"m && $2+0 > 0 { found = 1 } END { exit !found }' "$TMP/metrics" || {
        echo "telemetry-smoke: FAIL — $hist has no observations"
        exit 1
    }
done

# The run's one-shot Prometheus dump must be the only thing on stdout.
head -1 "$TMP/stdout" | grep -q '^# TYPE ' || {
    echo "telemetry-smoke: FAIL — stdout is not clean Prometheus text:"
    head -3 "$TMP/stdout"
    exit 1
}

echo "telemetry-smoke: OK ($(grep -c '^# TYPE' "$TMP/metrics") metric families)"
