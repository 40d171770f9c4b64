// Command attestd runs a simulated PERA switch and exposes its RATS
// attester interface over TCP: challenges with claim lists come in,
// signed evidence goes out. On startup it prints the provisioning lines
// (AIK key + golden values) an appraised instance needs to trust it, so
// the attestd/appraised/attestctl trio demonstrates the full Fig. 1 flow
// across real sockets.
//
// Usage:
//
//	attestd -listen :7422 -name sw1 -program firewall
//	attestd -listen :7422 -program-file my_pipeline.p4l
//	attestd -listen :7422 -telemetry :9464   # live /metrics for the switch
//	attestd -listen :7422 -audit sw1.jsonl   # hash-chained RATS audit ledger
//	attestd -listen :7422 -telemetry :9464 -trace 8   # trace 1-in-8 flows at /trace
//	attestd -listen :7422 -telemetry :9464 -profile   # stage-attributed CPU at /profile.json
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"pera/cmd/internal/planes"
	"pera/internal/evidence"
	"pera/internal/p4ir"
	"pera/internal/pera"
	"pera/internal/rats"
)

var (
	listen  = flag.String("listen", "127.0.0.1:7422", "TCP listen address")
	name    = flag.String("name", "sw1", "switch platform name")
	program = flag.String("program", "forwarding", "dataplane program: forwarding, firewall, acl, monitor, rogue")
	file    = flag.String("program-file", "", "load the dataplane program from a P4-lite source file instead")

	planeFlags = planes.Register(flag.CommandLine,
		planes.Telemetry|planes.Trace|planes.Audit|planes.Pprof|planes.Recorder|planes.Profile)
)

func main() {
	flag.Parse()

	prog, err := buildProgram(*program)
	if *file != "" {
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		prog, err = p4ir.ParseProgram(string(src))
	}
	if err != nil {
		fatal(err)
	}
	sw, err := pera.New(*name, prog, pera.Config{})
	if err != nil {
		fatal(err)
	}

	// The ledger MAC key is derived from this switch's RoT AIK seed, so
	// the party that provisioned the switch — and only that party — can
	// re-derive it to verify the chain.
	key := sw.RoT().AuditKey()
	pl, err := planeFlags.Open(planes.Setup{
		Name: "attestd", Service: "attestd/" + *name, Log: os.Stdout,
		Key: key, KeyID: *name,
	})
	if err != nil {
		fatal(err)
	}
	if pl.Audit != nil {
		fmt.Printf("audit-key %s %s\n", *name, hex.EncodeToString(key))
	}
	if pl.Registry != nil {
		sw.Instrument(pl.Registry)
	}
	sw.SetTracer(pl.Tracer)
	sw.SetAudit(pl.Audit)
	if err := pl.Start(); err != nil {
		fatal(err)
	}
	defer pl.Close()

	ln, err := rats.ListenAndServe(*listen, sw.AttesterHandler())
	if err != nil {
		fatal(err)
	}
	defer ln.Close()

	fmt.Printf("attestd: %s running %s, listening on %s\n", *name, prog.Name, ln.Addr())
	fmt.Println("attestd: provisioning lines for appraised -config:")
	fmt.Printf("key %s %s\n", *name, hex.EncodeToString(sw.RoT().Public()))
	gs, err := sw.Golden(evidence.DetailHardware, evidence.DetailProgram, evidence.DetailTables)
	if err != nil {
		fatal(err)
	}
	for _, g := range gs {
		fmt.Printf("golden %s %s %s %s\n", *name, g.Target, g.Detail, hex.EncodeToString(g.Value[:]))
	}
	pl.Wait()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "attestd: %v\n", err)
	os.Exit(1)
}

func buildProgram(kind string) (*p4ir.Program, error) {
	switch kind {
	case "forwarding":
		return p4ir.NewForwarding("fwd_v1.p4"), nil
	case "firewall":
		return p4ir.NewFirewall("firewall_v5.p4"), nil
	case "acl":
		return p4ir.NewACL("ACL_v3.p4"), nil
	case "monitor":
		return p4ir.NewMonitor("monitor_v2.p4"), nil
	case "rogue":
		return p4ir.NewRogueForwarding("fwd_v1.p4", 99), nil
	default:
		return nil, fmt.Errorf("unknown program %q", kind)
	}
}
