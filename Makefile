# PERA simulator build/test entry points.
#
# Tier-1 flow (what CI and reviewers run):
#
#     make build test race
#
# The race target is part of tier-1: the attestation pipeline is
# explicitly concurrent (pool appraisal, concurrent switch ingestion,
# sharded caches) and every regression test for it must pass under the
# race detector.

GO ?= go

.PHONY: all build test race vet perabench-test fuzz bench bench-quick bench-throughput telemetry-smoke audit-smoke observe-smoke slo-smoke trace-smoke recorder-smoke fleet-smoke profile-smoke cover fmt fmt-check clean

all: build test race vet

build:
	$(GO) build ./...

# test is unit tests + vet + the end-to-end smokes: a scrape of a live
# perasim run must expose every pipeline stage (telemetry_smoke.sh), a
# perasim-written audit ledger must verify, query, explain, and catch a
# one-byte tamper through attestctl (audit_smoke.sh), and an observed
# UC1 run must name every hop and localize a mid-run program swap
# through the collector and attestctl top/paths (observe_smoke.sh), and
# a trust-decay run with recovery disabled must leave the frozen place
# lapsed with a firing, ledger-recorded staleness alert (slo_smoke.sh),
# and one attestctl round against live attestd + appraised processes
# must merge into a single cross-process trace (trace_smoke.sh), and a
# recorder-enabled UC1 run must leave an incident bundle that localizes
# the compromised switch offline (recorder_smoke.sh), and a fleetd
# scraping three live perasim processes must merge them into one trust
# map with the seeded conflict found and a killed member marked down
# (fleet_smoke.sh), and a -profile throughput run must attribute the
# timed phase's CPU to RATS stages on /profile.json with the raw
# cpu.pprof artifact re-summarizing offline to the same hotspot
# (profile_smoke.sh).
test: vet
	$(GO) test ./...
	$(MAKE) telemetry-smoke
	$(MAKE) audit-smoke
	$(MAKE) observe-smoke
	$(MAKE) slo-smoke
	$(MAKE) trace-smoke
	$(MAKE) recorder-smoke
	$(MAKE) fleet-smoke
	$(MAKE) profile-smoke

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# perabench is its own module (replace pera => ../), so ./... never
# builds it; vet and race-test it in place.
perabench-test:
	cd perabench && $(GO) vet . && $(GO) test -race .

# Native fuzz targets, one after another, FUZZTIME each: the RATS wire
# decoder, the evidence decoders, the PERA header pop and policy
# decoder, the policy parser, and the certificate and quote decoders. Their seeds already
# run as plain tests under `go test`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/rats
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/evidence
	$(GO) test -run '^$$' -fuzz '^FuzzPop$$' -fuzztime $(FUZZTIME) ./internal/pera
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePolicy$$' -fuzztime $(FUZZTIME) ./internal/pera
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME) ./internal/copland
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCertificate$$' -fuzztime $(FUZZTIME) ./internal/appraiser
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeQuote$$' -fuzztime $(FUZZTIME) ./internal/rot

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Allocation-budget guard (CI tier): run the end-to-end throughput
# benchmark a few iterations and fail if allocs/op exceeds the
# checked-in budget in bench_budget.txt. See docs/PERFORMANCE.md.
bench-quick:
	GO=$(GO) sh scripts/bench_quick.sh

# Just the concurrent-appraisal families and the Sign and Verify memo
# rows (the BENCH_throughput.json source); see README "Performance".
bench-throughput:
	$(GO) test -bench 'BenchmarkThroughput|BenchmarkVerifyMemo|BenchmarkSignStage' -benchmem -run '^$$' .

# End-to-end observability check: run perasim with a live endpoint,
# scrape /metrics, assert the per-stage histograms are populated.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# End-to-end tamper-evidence check: perasim writes the audit ledger,
# attestctl verifies/queries/explains it, and a one-byte flip must fail
# verification at the damaged record.
audit-smoke:
	sh scripts/audit_smoke.sh

# End-to-end observatory check: perasim -observe serves the collector,
# the snapshot names every hop and localizes the program swap, and
# attestctl top/paths render the same state.
observe-smoke:
	sh scripts/observe_smoke.sh

# End-to-end trust-decay check: perasim -slo (no recovery) serves the
# watchdog, /coverage.json marks the frozen place lapsed, /alerts.json
# and attestctl coverage/alerts show the firing staleness alert, and
# the audit ledger records it and verifies.
slo-smoke:
	sh scripts/slo_smoke.sh

# End-to-end distributed-tracing check: attestd and appraised run with
# -trace over real TCP, one attestctl round propagates the trace
# context, and `attestctl trace` merges both span rings into one trace.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end flight-recorder check: a recorder-enabled UC1 observe run
# serves live metric history, pages the anomaly through the shared
# sinks, then — process killed — the incident bundle re-verifies and
# names the compromised switch entirely offline.
recorder-smoke:
	sh scripts/recorder_smoke.sh

# End-to-end fleet check: three perasim -slo processes with a seeded
# fresh-vs-lapsed disagreement, one fleetd scraping them, /fleet.json
# shows the merged trust map + status-conflict finding, a killed member
# goes down within two intervals, survivors keep updating, and the
# pera_fleet_* federation metrics agree.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# End-to-end continuous-profiling check: a -profile UC1 throughput run
# serves /profile.json with >= 60% of the timed phase's CPU attributed
# to stage labels (verify-stage row present), a bad query answers with
# the JSON error contract, and the downloaded cpu.pprof re-summarizes
# offline — process dead — to the same hotspot via `attestctl profile
# top -file`.
profile-smoke:
	sh scripts/profile_smoke.sh

# Coverage over the library packages with a floor: the build fails if
# total statement coverage regresses below COVER_FLOOR percent.
COVER_FLOOR ?= 80.0
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) ' \
		/^total:/ { total = $$3; sub("%", "", total) } \
		END { \
			printf "coverage: %s%% total (floor %.1f%%)\n", total, floor; \
			if (total + 0 < floor + 0) { print "cover: FAIL — below floor"; exit 1 } \
		}'

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)

# Formatting gate (CI tier): gofmt -l over the root module's package
# directories and the perabench module; fails, listing the files, if
# gofmt would change any of them.
fmt-check:
	@unformatted=$$(gofmt -l $$($(GO) list -f '{{.Dir}}' ./...) perabench | sort -u); \
	if [ -n "$$unformatted" ]; then \
		echo "fmt-check: gofmt would change:"; echo "$$unformatted"; exit 1; \
	fi

clean:
	$(GO) clean ./...
