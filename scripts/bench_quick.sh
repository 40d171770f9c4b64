#!/bin/sh
# bench_quick.sh — allocation-regression guard for the hot path.
#
# Runs BenchmarkThroughput_EndToEnd a handful of iterations at
# GOMAXPROCS 2 and fails if allocs/op exceeds the checked-in budget
# (bench_budget.txt). allocs/op from -benchmem is an exact runtime
# counter, not a timing, so a short run is deterministic enough to gate
# CI on. The count grows with GOMAXPROCS (the pool sizes itself to it),
# so -cpu 2 keeps it independent of the runner's core count.
set -eu

cd "$(dirname "$0")/.."

budget=$(grep -v '^#' bench_budget.txt | grep -o '[0-9][0-9]*' | head -n1)
if [ -z "$budget" ]; then
    echo "bench-quick: no budget found in bench_budget.txt" >&2
    exit 2
fi

out=$(${GO:-go} test -run '^$' -bench 'BenchmarkThroughput_EndToEnd' -benchmem -benchtime 5x -cpu 2 .)
echo "$out"

allocs=$(echo "$out" | awk '/BenchmarkThroughput_EndToEnd/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$allocs" ]; then
    echo "bench-quick: could not parse allocs/op from benchmark output" >&2
    exit 2
fi

echo "bench-quick: ${allocs} allocs/op (budget ${budget})"
if [ "$allocs" -gt "$budget" ]; then
    echo "bench-quick: FAIL — BenchmarkThroughput_EndToEnd exceeded the allocation budget." >&2
    echo "bench-quick: if this increase is intentional, update bench_budget.txt in the same change." >&2
    exit 1
fi
echo "bench-quick: OK"
