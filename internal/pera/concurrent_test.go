package pera

import (
	"sync"
	"sync/atomic"
	"testing"

	"pera/internal/evidence"
)

// TestSwitchConcurrentInject is the regression test for the Stats data
// race: before the counters moved to sync/atomic, concurrent Receive
// calls could lose increments (and tripped the race detector). N
// goroutines inject frames simultaneously and every counter must come
// out exact. This test is part of the tier-1 `go test -race` flow.
func TestSwitchConcurrentInject(t *testing.T) {
	s := newSwitch(t, "sw-conc", Config{
		Composition: evidence.Pointwise,
		Standing: []Obligation{{
			Claims:       []evidence.Detail{evidence.DetailProgram},
			SignEvidence: true,
			Appraiser:    "Appraiser",
		}},
	})
	var oob atomic.Uint64
	s.SetSink(func(sw, appr string, ev *evidence.Evidence) { oob.Add(1) })

	frame := testFrame(t, s)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Receive(1, frame); err != nil {
					t.Errorf("inject: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const want = workers * perWorker
	st := s.Stats()
	if st.Packets != want {
		t.Fatalf("packets = %d, want %d (lost increments under concurrency)", st.Packets, want)
	}
	if st.Attested != want || st.SignOps != want || st.OutOfBandMsgs != want {
		t.Fatalf("attested/signOps/oob = %d/%d/%d, want %d each", st.Attested, st.SignOps, st.OutOfBandMsgs, want)
	}
	if got := oob.Load(); got != want {
		t.Fatalf("sink saw %d emissions, want %d", got, want)
	}
	if st.EvidenceBytes == 0 {
		t.Fatal("no evidence bytes recorded")
	}
}

// TestSwitchConcurrentInjectInBand runs the concurrent-inject check over
// the in-band path with the Verify stage and its memo enabled: the same
// wrapped frame re-presented from every goroutine must verify each time
// and the memo must absorb the repeated signature checks.
func TestSwitchConcurrentInjectInBand(t *testing.T) {
	up := newSwitch(t, "sw-up", Config{
		InBand:      true,
		Composition: evidence.Chained,
	})
	memo := evidence.NewVerifyMemo(0)
	s := newSwitch(t, "sw-conc", Config{
		InBand:         true,
		Composition:    evidence.Chained,
		VerifyIncoming: evidence.KeyMap{"sw-up": up.RoT().Public()},
		VerifyMemo:     memo,
	})

	// Let the upstream switch attest once, producing a frame whose header
	// carries a signed chain for sw-conc's Verify stage.
	pol := &Policy{ID: 3, Nonce: []byte("conc-ib"), Obls: []Obligation{{
		Place:        "sw-up",
		Claims:       []evidence.Detail{evidence.DetailProgram},
		SignEvidence: true,
	}}}
	outs, err := up.Receive(1, WrapFrame(pol, testFrame(t, up)))
	if err != nil || len(outs) == 0 {
		t.Fatalf("upstream attestation: outs=%d err=%v", len(outs), err)
	}
	wire := outs[0].Frame

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Receive(1, wire); err != nil {
					t.Errorf("inject: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const want = workers * perWorker
	st := s.Stats()
	if st.Packets != want || st.VerifyOps != want {
		t.Fatalf("packets/verifyOps = %d/%d, want %d each", st.Packets, st.VerifyOps, want)
	}
	if st.VerifyFails != 0 {
		t.Fatalf("%d verify failures on a valid chain", st.VerifyFails)
	}
	ms := memo.Stats()
	if ms.Hits == 0 {
		t.Fatalf("verify memo recorded no hits over %d identical chains: %+v", want, ms)
	}
}
