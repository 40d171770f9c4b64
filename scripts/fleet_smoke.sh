#!/bin/sh
# Fleet observability smoke test, over real processes and real sockets:
# boot three perasim -slo runs (one leaves sw2 lapsed with a firing
# alert, two keep every place fresh) plus a fleetd scraping all three,
# then assert on the live /fleet.json that (a) all three processes merge
# into one trust map, (b) the fresh-vs-lapsed disagreement on sw2 is
# reported as a status-conflict finding, (c) a killed process goes
# `down` within two scrape intervals while the survivors keep updating,
# and (d) attestctl fleet and the pera_fleet_* federation metrics render
# the same state. Run via `make fleet-smoke` (part of tier-1 `make test`).
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    for p in $PIDS; do wait "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "fleet-smoke: building perasim, fleetd and attestctl"
go build -o "$TMP/perasim" ./cmd/perasim
go build -o "$TMP/fleetd" ./cmd/fleetd
go build -o "$TMP/attestctl" ./cmd/attestctl

# Boot one fleet member: $1 = name, $2+ = extra perasim -slo flags. Each
# run holds its telemetry endpoint open after completing; the frozen sim
# clock keeps the coverage stable for assertions.
start_sim() {
    name=$1; shift
    : >"$TMP/$name.err" # wait_url may poll before the redirect creates it
    "$TMP/perasim" -slo "$@" -telemetry 127.0.0.1:0 -telemetry-hold \
        >"$TMP/$name.out" 2>"$TMP/$name.err" &
    PIDS="$PIDS $!"
    eval "${name}_pid=$!"
}

wait_url() {
    name=$1
    url=""
    for _ in $(seq 1 150); do
        url=$(sed -n 's/.*run complete; telemetry still serving on \(http:[^ ]*\).*/\1/p' "$TMP/$name.err")
        [ -n "$url" ] && break
        sleep 0.2
    done
    if [ -z "$url" ]; then
        echo "fleet-smoke: $name endpoint never came up"; cat "$TMP/$name.err"; exit 1
    fi
    echo "${url%/metrics}"
}

# sim1: recovery disabled — sw2 stays lapsed, staleness alert firing.
# sim2/sim3: freeze disabled — every place fresh. Same chain, same place
# names, so sim1 and sim2 disagree about sw2: the seeded conflict.
start_sim sim1 -slo-packets 96 -slo-recover -1
start_sim sim2 -slo-packets 96 -slo-freeze -1
start_sim sim3 -slo-packets 96 -slo-freeze -1
URL1=$(wait_url sim1); URL2=$(wait_url sim2); URL3=$(wait_url sim3)
echo "fleet-smoke: members at $URL1 $URL2 $URL3"

INTERVAL_MS=300
: >"$TMP/fleetd.out" # polled below, maybe before the redirect creates it
"$TMP/fleetd" -targets "sim1=$URL1,sim2=$URL2,sim3=$URL3" \
    -interval ${INTERVAL_MS}ms -listen 127.0.0.1:0 \
    >"$TMP/fleetd.out" 2>"$TMP/fleetd.err" &
PIDS="$PIDS $!"

FLEET=""
for _ in $(seq 1 100); do
    FLEET=$(sed -n 's|.*serving fleet view on \(http://[^/]*\)/fleet.json.*|\1|p' "$TMP/fleetd.out")
    [ -n "$FLEET" ] && break
    sleep 0.1
done
[ -n "$FLEET" ] || { echo "fleet-smoke: fleetd never came up"; cat "$TMP/fleetd.out" "$TMP/fleetd.err"; exit 1; }
echo "fleet-smoke: fleetd at $FLEET"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1" >"$2"
    else
        wget -qO "$2" "$1"
    fi
}

# (a) All three processes merged into one trust map, everyone up.
ok=""
for _ in $(seq 1 50); do
    fetch "$FLEET/fleet.json" "$TMP/fleet.json" || true
    if grep -q '"targets_up": 3' "$TMP/fleet.json" 2>/dev/null; then ok=1; break; fi
    sleep 0.2
done
[ -n "$ok" ] || { echo "fleet-smoke: FAIL — three targets never merged up:"; cat "$TMP/fleet.json"; exit 1; }
for place in sw1 sw2 sw3 sw4; do
    grep -q "\"place\": \"$place\"" "$TMP/fleet.json" || {
        echo "fleet-smoke: FAIL — $place missing from merged trust map:"; cat "$TMP/fleet.json"; exit 1
    }
done

# (b) The fresh-vs-lapsed disagreement on sw2 is a first-class finding,
# and the merged feed carries sim1's firing staleness alert.
grep -q '"kind": "status-conflict"' "$TMP/fleet.json" || {
    echo "fleet-smoke: FAIL — no status-conflict finding:"; cat "$TMP/fleet.json"; exit 1
}
grep -q '"conflict": true' "$TMP/fleet.json" || {
    echo "fleet-smoke: FAIL — sw2 trust row not marked conflicted:"; cat "$TMP/fleet.json"; exit 1
}
grep -q '"rule": "staleness-threshold"' "$TMP/fleet.json" || {
    echo "fleet-smoke: FAIL — firing staleness alert missing from merged feed:"; cat "$TMP/fleet.json"; exit 1
}

# attestctl renders the same state from the daemon, and a one-shot
# -endpoints scrape (no daemon) sees the same conflict.
"$TMP/attestctl" fleet top -fleet "$FLEET" >"$TMP/top.txt" 2>&1 || {
    echo "fleet-smoke: FAIL — attestctl fleet top errored:"; cat "$TMP/top.txt"; exit 1
}
grep -q "CONFLICT" "$TMP/top.txt" || {
    echo "fleet-smoke: FAIL — attestctl fleet top missing the conflict row:"; cat "$TMP/top.txt"; exit 1
}
"$TMP/attestctl" fleet status -endpoints "$URL1,$URL2" >"$TMP/oneshot.txt" 2>&1 || {
    echo "fleet-smoke: FAIL — attestctl fleet -endpoints errored:"; cat "$TMP/oneshot.txt"; exit 1
}
grep -q "status-conflict" "$TMP/oneshot.txt" || {
    echo "fleet-smoke: FAIL — one-shot scrape missing the conflict finding:"; cat "$TMP/oneshot.txt"; exit 1
}

# (c) Kill sim3: it must be marked down within two scrape intervals
# (generous wall-clock allowance for scheduling) while the survivors
# keep being scraped.
before=$(sed -n '/"name": "sim1"/,/}/p' "$TMP/fleet.json" | sed -n 's/.*"scrapes": \([0-9]*\).*/\1/p' | head -1)
kill "$sim3_pid" 2>/dev/null || true
down=""
for _ in $(seq 1 40); do   # 40 × 200ms = 8s ≫ 2 × 300ms intervals
    fetch "$FLEET/fleet.json" "$TMP/fleet.json" || true
    if grep -q '"targets_down": 1' "$TMP/fleet.json" 2>/dev/null; then down=1; break; fi
    sleep 0.2
done
[ -n "$down" ] || { echo "fleet-smoke: FAIL — killed target never went down:"; cat "$TMP/fleet.json"; exit 1; }
grep -q '"kind": "target-down"' "$TMP/fleet.json" || {
    echo "fleet-smoke: FAIL — no target-down finding:"; cat "$TMP/fleet.json"; exit 1
}
grep -q '"targets_up": 2' "$TMP/fleet.json" || {
    echo "fleet-smoke: FAIL — survivors not up after the kill:"; cat "$TMP/fleet.json"; exit 1
}
sleep 1
fetch "$FLEET/fleet.json" "$TMP/fleet2.json"
after=$(sed -n '/"name": "sim1"/,/}/p' "$TMP/fleet2.json" | sed -n 's/.*"scrapes": \([0-9]*\).*/\1/p' | head -1)
if [ -z "$before" ] || [ -z "$after" ] || [ "$after" -le "$before" ]; then
    echo "fleet-smoke: FAIL — survivor scrapes stalled ($before -> $after)"; exit 1
fi

# (d) The Prometheus federation endpoint reports the same fleet state.
fetch "$FLEET/metrics" "$TMP/metrics.txt"
grep -q 'pera_fleet_targets{state="down"} 1' "$TMP/metrics.txt" || {
    echo "fleet-smoke: FAIL — federation metrics missing the down target:"; cat "$TMP/metrics.txt"; exit 1
}
grep -q 'pera_fleet_conflicts 1' "$TMP/metrics.txt" || {
    echo "fleet-smoke: FAIL — federation metrics missing the conflict:"; cat "$TMP/metrics.txt"; exit 1
}

echo "fleet-smoke: OK (3 processes merged, sw2 conflict found, kill -> down in <2 intervals, survivors kept updating)"
