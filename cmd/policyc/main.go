// Command policyc is the attestation-policy compiler and analyzer.
//
// It parses base-Copland requests and network-aware Copland policies,
// runs the repair-attack trust analysis on Copland terms, and compiles
// network-aware policies against a synthetic path, printing the resulting
// per-hop obligations and endpoint phrases.
//
// Usage:
//
//	policyc -ap ap1|ap2|ap3            # compile a Table 1 policy
//	policyc -copland '<request>'       # parse + analyze base Copland
//	policyc -policy '<nac policy>'     # parse + compile network-aware
//	policyc -path bank,sw1:ra,sw2:ra,client  # synthetic path spec
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/nac"
	"pera/internal/netkat"
	"pera/internal/pera"
)

func main() {
	var (
		apName  = flag.String("ap", "", "compile a Table 1 policy: ap1, ap2 or ap3")
		copSrc  = flag.String("copland", "", "parse and analyze a base Copland request")
		nacSrc  = flag.String("policy", "", "parse and compile a network-aware Copland policy")
		nkSrc   = flag.String("netkat", "", "parse a NetKAT policy (use with -equiv/-domain)")
		nkEquiv = flag.String("equiv", "", "second NetKAT policy to check equivalence against")
		nkDom   = flag.String("domain", "sw=0,1,2;pt=0,1,2;dst=0,1",
			"finite field domains for equivalence checking: f=v1,v2;g=...")
		pathStr = flag.String("path", "bank,sw1:ra,sw2:ra,sw3:ra,client",
			"comma-separated synthetic path; ':ra' marks attesting hops")
		trusted = flag.String("trusted", "av", "comma-separated trusted measurers for analysis")
	)
	flag.Parse()

	switch {
	case *nkSrc != "":
		checkNetKAT(*nkSrc, *nkEquiv, *nkDom)
	case *copSrc != "":
		analyzeCopland(*copSrc, strings.Split(*trusted, ","))
	case *apName != "":
		src, ok := map[string]string{"ap1": nac.AP1, "ap2": nac.AP2, "ap3": nac.AP3}[strings.ToLower(*apName)]
		if !ok {
			fatal("unknown policy %q (want ap1, ap2 or ap3)", *apName)
		}
		compileNAC(src, *pathStr)
	case *nacSrc != "":
		compileNAC(*nacSrc, *pathStr)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "policyc: "+format+"\n", args...)
	os.Exit(1)
}

func analyzeCopland(src string, trusted []string) {
	req, err := copland.ParseRequest(src)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("parsed: %s\n", req)
	fmt.Printf("places: %s\n", strings.Join(copland.Places(req.Body), ", "))
	if shape, err := copland.InferRequest(req, len(req.Params) > 0, copland.InferOptions{}); err == nil {
		c := copland.Count(shape)
		fmt.Printf("evidence shape: %s\n", copland.Render(shape))
		fmt.Printf("static cost: %d measurements, %d signatures, %d hashes\n",
			c.Measurements, c.Signatures, c.Hashes)
	}
	tm := map[string]bool{}
	for _, name := range trusted {
		if name != "" {
			tm[name] = true
		}
	}
	rep := copland.Analyze(req.Body, copland.AnalyzeOptions{
		TrustedMeasurers: tm,
		RootPlace:        req.RelyingParty,
	})
	if len(rep.Findings) == 0 {
		fmt.Println("analysis: no measurer uses to check")
		return
	}
	for _, f := range rep.Findings {
		fmt.Printf("analysis: %s\n", f)
	}
	if rep.Vulnerable() {
		fmt.Println("analysis: VULNERABLE — consider sequencing measurements ('<') per §4.2")
		os.Exit(1)
	}
	fmt.Println("analysis: protected")
}

func checkNetKAT(src, equiv, domainSpec string) {
	p, err := netkat.ParsePolicy(src)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("parsed: %s\n", p)
	if equiv == "" {
		return
	}
	q, err := netkat.ParsePolicy(equiv)
	if err != nil {
		fatal("second policy: %v", err)
	}
	dom := netkat.Domain{}
	for _, part := range strings.Split(domainSpec, ";") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			fatal("bad domain spec %q (want f=v1,v2;...)", part)
		}
		var vals []uint64
		for _, vs := range strings.Split(kv[1], ",") {
			var v uint64
			if _, err := fmt.Sscanf(strings.TrimSpace(vs), "%d", &v); err != nil {
				fatal("bad domain value %q", vs)
			}
			vals = append(vals, v)
		}
		dom[kv[0]] = vals
	}
	eq, witness, err := netkat.EquivalentOn(dom, p, q)
	if err != nil {
		fatal("equivalence: %v", err)
	}
	if eq {
		fmt.Printf("equivalent over %d packets\n", len(dom.Packets()))
		return
	}
	fmt.Printf("NOT equivalent; witness packet: %v\n", witness)
	os.Exit(1)
}

func parsePath(spec string) []nac.PathHop {
	var hops []nac.PathHop
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ra := strings.HasSuffix(part, ":ra")
		name := strings.TrimSuffix(part, ":ra")
		hops = append(hops, nac.PathHop{Name: name, Attesting: ra, CanSign: true})
	}
	return hops
}

func compileNAC(src, pathSpec string) {
	pol, err := copland.ParsePolicy(src)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("policy: %s\n", pol)
	path := parsePath(pathSpec)

	// A permissive demo registry: key relationships hold everywhere, the
	// traffic test P matches dport 4444.
	reg := nac.TestRegistry{
		"Khop":    {PlacePred: func(string) bool { return true }},
		"Kclient": {PlacePred: func(string) bool { return true }},
		"Peer1":   {PlacePred: func(string) bool { return true }},
		"Peer2":   {PlacePred: func(string) bool { return true }},
		"Q":       {PlacePred: func(string) bool { return true }},
		"P":       {PacketGuards: []pera.Guard{{Field: "tp.dport", Value: 4444}}},
	}
	compiled, err := nac.Compile(pol, path, reg, nac.Options{
		Nonce:    []byte("policyc-demo-nonce"),
		PolicyID: 1,
		Properties: map[string][]evidence.Detail{
			"X":  {evidence.DetailProgram, evidence.DetailTables},
			"P":  {evidence.DetailPackets},
			"F1": {evidence.DetailProgram},
			"F2": {evidence.DetailProgram},
		},
	})
	if err != nil {
		fatal("compile: %v", err)
	}
	fmt.Printf("bindings:\n")
	vars := make([]string, 0, len(compiled.Bindings))
	for v := range compiled.Bindings {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		fmt.Printf("  %s -> %s\n", v, compiled.Bindings[v])
	}
	fmt.Printf("obligations (%d):\n", len(compiled.Policy.Obls))
	for i, o := range compiled.Policy.Obls {
		place := o.Place
		if place == "" {
			place = "<every PERA hop>"
		}
		fmt.Printf("  [%d] at %-16s claims=%v hash=%v sign=%v guards=%v appraiser=%s\n",
			i, place, o.Claims, o.HashEvidence, o.SignEvidence, o.Guards, o.Appraiser)
	}
	fmt.Printf("endpoint phrases (%d):\n", len(compiled.HostTerms))
	for _, h := range compiled.HostTerms {
		fmt.Printf("  @%s: %s\n", h.Place, h.Term)
	}
	wire := compiled.Policy.Encode()
	fmt.Printf("wire size: %d bytes (in-band header policy section)\n", len(wire))
}
