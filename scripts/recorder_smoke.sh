#!/bin/sh
# Flight-recorder smoke test: run the UC1 observe scenario with the
# recorder on, read live metric history through `attestctl history`,
# then KILL the process and prove the incident is fully reconstructable
# offline — `attestctl incident` must find a bundle whose trigger names
# the exact compromised switch, whose anomaly record carries the
# localization, and whose file digests and audit-ledger tail chain all
# re-verify with no live process. Run via `make recorder-smoke` (part of
# tier-1 `make test`).
set -eu

cd "$(dirname "$0")/.."

ATTACK=sw2   # default attack target for a 4-hop chain (the middle hop)

TMP="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "recorder-smoke: building perasim and attestctl"
go build -o "$TMP/perasim" ./cmd/perasim
go build -o "$TMP/attestctl" ./cmd/attestctl

# The poll below may run before the background redirect creates the
# log, so create it first.
: >"$TMP/stderr"
"$TMP/perasim" -observe -observe-hops 4 -observe-packets 96 \
    -audit "$TMP/trail.jsonl" -recorder "$TMP/incidents" \
    -telemetry 127.0.0.1:0 -telemetry-hold \
    >"$TMP/stdout" 2>"$TMP/stderr" &
PID=$!

URL=""
for _ in $(seq 1 100); do
    URL=$(sed -n 's/.*run complete; telemetry still serving on \(http:[^ ]*\).*/\1/p' "$TMP/stderr")
    [ -n "$URL" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "recorder-smoke: perasim exited early"; cat "$TMP/stderr"; exit 1; }
    sleep 0.2
done
[ -n "$URL" ] || { echo "recorder-smoke: endpoint never came up"; cat "$TMP/stderr"; exit 1; }
BASE="${URL%/metrics}"

# Live half: /history.json serves the recorder's ring store.
"$TMP/attestctl" history -collector "$BASE" >"$TMP/index" 2>&1 || {
    echo "recorder-smoke: FAIL — attestctl history errored:"; cat "$TMP/index"; exit 1
}
for want in pera_recorder_scrapes_total pera_evidence_cache_misses_total; do
    grep -q "$want" "$TMP/index" || {
        echo "recorder-smoke: FAIL — series $want missing from history index:"; cat "$TMP/index"; exit 1
    }
done
"$TMP/attestctl" history pera_evidence_cache_misses_total -collector "$BASE" >"$TMP/spark" 2>&1 || {
    echo "recorder-smoke: FAIL — attestctl history <metric> errored:"; cat "$TMP/spark"; exit 1
}
grep -q "pera_evidence_cache_misses_total (counter" "$TMP/spark" || {
    echo "recorder-smoke: FAIL — sparkline header missing:"; cat "$TMP/spark"; exit 1
}

# The anomaly pipeline fired through the shared freshness sinks.
grep -q "recorder: ANOMALY" "$TMP/stderr" || {
    echo "recorder-smoke: FAIL — no anomaly on the log sink"; cat "$TMP/stderr"; exit 1
}

# Offline half: kill the process first. The bundle IS the incident.
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""

"$TMP/attestctl" incident list -dir "$TMP/incidents" >"$TMP/list" 2>&1 || {
    echo "recorder-smoke: FAIL — attestctl incident list errored:"; cat "$TMP/list"; exit 1
}
grep -q "incident-" "$TMP/list" || {
    echo "recorder-smoke: FAIL — no incident bundles:"; cat "$TMP/list"; exit 1
}

# Find the localization bundle: the capture that names the compromised
# switch (it bypasses the debounce precisely so it always exists).
LOC_ID=""
for id in $(sed -n 's/^\([0-9a-f]\{12\}\) .*/\1/p' "$TMP/list"); do
    if "$TMP/attestctl" incident show "$id" -dir "$TMP/incidents" 2>/dev/null |
        grep -q "rule=localization"; then
        LOC_ID="$id"
        break
    fi
done
[ -n "$LOC_ID" ] || { echo "recorder-smoke: FAIL — no localization bundle"; cat "$TMP/list"; exit 1; }

"$TMP/attestctl" incident show "$LOC_ID" -dir "$TMP/incidents" -verify >"$TMP/show" 2>&1 || {
    echo "recorder-smoke: FAIL — incident show -verify errored:"; cat "$TMP/show"; exit 1
}
grep -q "rule=localization place=$ATTACK" "$TMP/show" || {
    echo "recorder-smoke: FAIL — bundle does not name $ATTACK:"; cat "$TMP/show"; exit 1
}
for want in "history.json" "observatory.json" "ledger_tail.jsonl" "verify   OK"; do
    grep -q "$want" "$TMP/show" || {
        echo "recorder-smoke: FAIL — '$want' missing from incident show:"; cat "$TMP/show"; exit 1
    }
done

# The archived anomaly record itself carries the localization.
"$TMP/attestctl" incident show "$LOC_ID" -dir "$TMP/incidents" -file anomaly.json >"$TMP/anom" 2>&1 || {
    echo "recorder-smoke: FAIL — incident show -file errored:"; cat "$TMP/anom"; exit 1
}
grep -q '"rule": "localization"' "$TMP/anom" || {
    echo "recorder-smoke: FAIL — anomaly.json is not the localization:"; cat "$TMP/anom"; exit 1
}
grep -q "\"place\": \"$ATTACK\"" "$TMP/anom" || {
    echo "recorder-smoke: FAIL — anomaly.json does not name $ATTACK:"; cat "$TMP/anom"; exit 1
}

# The full ledger also sealed the anomaly and the capture, and still
# chain-verifies end to end.
"$TMP/attestctl" audit verify -ledger "$TMP/trail.jsonl" >/dev/null || {
    echo "recorder-smoke: FAIL — ledger verification failed"; exit 1
}
for event in anomaly_detected incident_bundle; do
    "$TMP/attestctl" audit query -ledger "$TMP/trail.jsonl" -event "$event" -limit 1 |
        grep -q "$event" || {
        echo "recorder-smoke: FAIL — no $event record on the ledger"; exit 1
    }
done

echo "recorder-smoke: OK (incident bundle $LOC_ID localizes $ATTACK offline; digests + ledger tail verified)"
