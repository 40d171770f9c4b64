// Command attestctl drives remote-attestation rounds as the Relying
// Party of Fig. 1: it challenges an attestd switch with a fresh nonce and
// a claim list, forwards the returned evidence to an appraised daemon,
// and prints the signed attestation result.
//
// Usage:
//
//	attestctl -attester 127.0.0.1:7422 -appraiser 127.0.0.1:7421 \
//	          -claims hardware,program -subject sw1
//	attestctl -appraiser 127.0.0.1:7421 -retrieve <hex-nonce>
//
// It also queries the tamper-evident audit ledgers that perasim -audit
// and attestd -audit write:
//
//	attestctl audit verify  -ledger trail.jsonl
//	attestctl audit query   -ledger trail.jsonl -place sw1 -event verdict
//	attestctl audit explain -ledger trail.jsonl <hex-nonce>
//
// And it watches the observatory collector a `perasim -observe
// -telemetry <addr>` run serves (see docs/OBSERVATORY.md):
//
//	attestctl top   -collector http://127.0.0.1:9464
//	attestctl paths -collector http://127.0.0.1:9464 -n 5
//
// And the trust-decay watchdog a `perasim -slo -telemetry <addr>` run
// serves (see docs/FRESHNESS.md):
//
//	attestctl coverage -collector http://127.0.0.1:9464
//	attestctl alerts   -collector http://127.0.0.1:9464 -watch
//
// And the distributed traces that -trace-enabled attestd/appraised/
// perasim processes serve at /trace (see docs/TRACING.md):
//
//	attestctl trace -endpoints http://127.0.0.1:9464,http://127.0.0.1:9465 <flow|trace-id>
//
// And the flight recorder a -recorder-enabled process maintains (see
// docs/RECORDER.md): live metric history over /history.json, and the
// incident bundles it snapshots on anomalies/alerts — readable offline,
// no live process required:
//
//	attestctl history pera_verify_fails_total -collector http://127.0.0.1:9464
//	attestctl incident list -dir incidents
//	attestctl incident show -dir incidents -verify
//	attestctl incident export -dir incidents -out /tmp/incident
//
// And the fleet-wide view a fleetd daemon merges from several processes
// (see docs/FLEET.md) — or, without a daemon, a one-shot in-process
// scrape of the endpoints:
//
//	attestctl fleet status  -fleet http://127.0.0.1:9470
//	attestctl fleet top     -endpoints http://127.0.0.1:9464,http://127.0.0.1:9465
//	attestctl fleet targets -fleet http://127.0.0.1:9470 -watch
//
// And the continuous profiler a -profile process serves at /profile.json
// (see docs/PROFILING.md) — live, or offline against an exported pprof
// artifact:
//
//	attestctl profile top  -collector http://127.0.0.1:9464
//	attestctl profile top  -file incidents/<bundle>/cpu.pprof
//	attestctl profile diff -collector http://127.0.0.1:9464
//
// Every live verb reads its surface with a 2s timeout per request and
// one retry, so a stalled daemon ends it with an error. Running
// `attestctl <unknown>` prints the command list.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"pera/internal/appraiser"
	"pera/internal/rats"
	"pera/internal/rot"
	"pera/internal/telemetry"
)

// verbs names every subcommand with a one-line summary — both the
// dispatch table and the usage text, so the two cannot drift apart.
var verbs = []struct {
	name string
	desc string
	run  func(args []string)
}{
	{"audit", "verify / query / explain a hash-chained audit ledger", runAudit},
	{"top", "watch observatory place health", func(a []string) { runObserve("top", a) }},
	{"paths", "show observatory path traces", func(a []string) { runObserve("paths", a) }},
	{"coverage", "show the freshness coverage map", func(a []string) { runFreshness("coverage", a) }},
	{"alerts", "show the freshness alert ring", func(a []string) { runFreshness("alerts", a) }},
	{"trace", "assemble a distributed trace across endpoints", runTrace},
	{"fleet", "render the fleet-wide trust map and target health", runFleet},
	{"history", "render flight-recorder metric history (sparkline/table)", runHistory},
	{"incident", "list / show / export incident bundles", runIncident},
	{"profile", "top / diff / watch the continuous profiler", runProfile},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: attestctl [flags]            run one attestation round (see -h)")
	fmt.Fprintln(os.Stderr, "       attestctl <command> [flags]  inspect observability surfaces")
	fmt.Fprintln(os.Stderr, "commands:")
	for _, v := range verbs {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", v.name, v.desc)
	}
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		name := os.Args[1]
		for _, v := range verbs {
			if v.name == name {
				v.run(os.Args[2:])
				return
			}
		}
		if name != "help" {
			fmt.Fprintf(os.Stderr, "attestctl: unknown command %q\n", name)
		}
		usage()
		os.Exit(2)
	}
	var (
		attesterAddr  = flag.String("attester", "127.0.0.1:7422", "attestd address")
		appraiserAddr = flag.String("appraiser", "127.0.0.1:7421", "appraised address")
		claims        = flag.String("claims", "hardware,program", "comma-separated claim list")
		subject       = flag.String("subject", "switch", "subject recorded in the certificate")
		retrieve      = flag.String("retrieve", "", "retrieve a stored certificate by hex nonce instead of attesting")
	)
	flag.Parse()

	if *retrieve != "" {
		nonce, err := hex.DecodeString(*retrieve)
		if err != nil {
			fatal("bad -retrieve nonce: %v", err)
		}
		cert, err := retrieveCert(*appraiserAddr, nonce)
		if err != nil {
			fatal("%v", err)
		}
		printCert(cert)
		return
	}

	nonce := rot.NewNonce()
	fmt.Printf("attestctl: nonce %s\n", hex.EncodeToString(nonce))

	// Root the distributed trace for this round: the context rides the
	// challenge and appraise frames, so spans recorded by attestd and
	// appraised (when run with -trace) parent under this relying-party
	// span and share one flow-derived trace ID.
	root := telemetry.SpanContext{
		TraceID: telemetry.TraceIDFromFlow(rats.FlowID(nonce)),
		SpanID:  telemetry.NewSpanID(),
	}
	fmt.Printf("attestctl: trace %s (attestctl trace %s)\n", root.TraceID, root.TraceID)

	// 1-2: Challenge the attester, receive evidence.
	att, err := rats.Dial(*attesterAddr)
	if err != nil {
		fatal("dial attester: %v", err)
	}
	defer att.Close()
	challenge := &rats.Message{
		Type: rats.MsgChallenge, Session: 1, Nonce: nonce,
		Claims: splitClaims(*claims),
	}
	challenge.SetContext(root)
	evResp, err := att.Call(challenge)
	if err != nil {
		fatal("challenge: %v", err)
	}
	fmt.Printf("attestctl: received %d bytes of evidence\n", len(evResp.Body))

	// 3-4: Submit evidence for appraisal, receive the signed result.
	appr, err := rats.Dial(*appraiserAddr)
	if err != nil {
		fatal("dial appraiser: %v", err)
	}
	defer appr.Close()
	appraise := &rats.Message{
		Type: rats.MsgAppraise, Session: 2, Nonce: nonce,
		Claims: []string{*subject},
		Body:   evResp.Body,
	}
	appraise.SetContext(root)
	res, err := appr.Call(appraise)
	if err != nil {
		fatal("appraise: %v", err)
	}
	cert, err := appraiser.DecodeCertificate(res.Body)
	if err != nil {
		fatal("decode certificate: %v", err)
	}
	printCert(cert)
	if !cert.Verdict {
		os.Exit(1)
	}
}

func splitClaims(s string) []string {
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

func retrieveCert(addr string, nonce []byte) (*appraiser.Certificate, error) {
	conn, err := rats.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	resp, err := conn.Call(&rats.Message{Type: rats.MsgRetrieve, Session: 3, Nonce: nonce})
	if err != nil {
		return nil, err
	}
	return appraiser.DecodeCertificate(resp.Body)
}

func printCert(c *appraiser.Certificate) {
	verdict := "FAIL"
	if c.Verdict {
		verdict = "PASS"
	}
	fmt.Printf("attestctl: result %s\n", verdict)
	fmt.Printf("  issuer:  %s (serial %d)\n", c.Issuer, c.Serial)
	fmt.Printf("  subject: %s\n", c.Subject)
	fmt.Printf("  nonce:   %s\n", hex.EncodeToString(c.Nonce))
	fmt.Printf("  digest:  %s\n", hex.EncodeToString(c.EvidenceDigest[:8]))
	fmt.Printf("  reason:  %s\n", c.Reason)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "attestctl: "+format+"\n", args...)
	os.Exit(1)
}
