// Pathfactor: UC2 + UC3 — path evidence as an authentication factor and
// as an authorization tag.
//
// Alice's bank enrolls the attested path from her home network during a
// trusted session. Later she forgets her password: a fresh attested flow
// over the same path grants her limited access. Meanwhile the bank's
// gatekeeper, under DDoS, drops every frame that cannot show allowlisted
// path evidence.
//
// Run: go run ./examples/pathfactor
package main

import (
	"fmt"
	"log"

	"pera/internal/appraiser"
	"pera/internal/evidence"
	"pera/internal/pera"
	"pera/internal/usecases"
)

func main() {
	tb, err := usecases.NewTestbed(pera.Config{InBand: true, Composition: evidence.Chained})
	if err != nil {
		log.Fatal(err)
	}

	// --- UC2: authentication factor ---
	fmt.Println("== UC2: password-less login backed by path evidence ==")
	pa := usecases.NewPathAuthenticator(tb.Appraiser, tb.Keys())

	enroll, err := usecases.CollectPathEvidence(tb, []byte("enroll"))
	if err != nil {
		log.Fatal(err)
	}
	if err := pa.Enroll("alice", enroll); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolled alice's home path (tag %v)\n", appraiser.PathTag(enroll))

	login, err := usecases.CollectPathEvidence(tb, []byte("login-1"))
	if err != nil {
		log.Fatal(err)
	}
	dec, err := pa.Authenticate("alice", login, []byte("login-1"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice, no password, from home:  granted=%v limited=%v — %s\n",
		dec.Granted, dec.Limited, dec.Reason)

	dec, err = pa.Authenticate("mallory", login, []byte("login-2"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mallory, replaying evidence:    granted=%v — %s\n", dec.Granted, dec.Reason)

	// --- UC3: authorization tag under DDoS ---
	fmt.Println("\n== UC3: evidence-gated forwarding while under attack ==")
	gate := usecases.NewGatekeeper("gate", 1, 2, tb.Keys())
	gate.SetUnderAttack(true)

	hdr, err := usecases.SendUC1(tb, []byte("uc3-flow"), true, 7, []byte("legit"))
	if err != nil {
		log.Fatal(err)
	}
	legit := tb.Client.Received()[0]
	// The operator allowlists the tag of the sanctioned bank→client path
	// (path tags are direction-sensitive: the hop order is part of the
	// evidence).
	gate.AllowTag(appraiser.PathTag(hdr.Evidence))

	out, _ := gate.Receive(1, legit)
	fmt.Printf("attested frame with allowlisted tag: forwarded=%v\n", len(out) == 1)
	for i := 0; i < 5; i++ {
		gate.Receive(1, []byte("ddos-junk"))
	}
	fwd, dropped := gate.Counts()
	fmt.Printf("after 5 junk frames: forwarded=%d dropped=%d\n", fwd, dropped)
	fmt.Println("\"while under attack, a network could drop traffic for which it lacks path-based evidence\" — §2, UC3")
}
