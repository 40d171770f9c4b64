package pisa

import (
	"sync"
	"sync/atomic"
	"testing"

	"pera/internal/p4ir"
)

// TestInstallConcurrentWithProcess: packets look tables up in published
// snapshots without a lock while the control plane installs and clears
// entries. Run under -race it proves the two never touch the same memory
// unordered; in any build every packet must be decided by one snapshot
// that was published: dst 10 forwards out port 2 or, while its table is
// cleared, drops; dst 11 forwards out port 3 or drops.
func TestInstallConcurrentWithProcess(t *testing.T) {
	in := loadFwd(t)
	prog := in.Program()
	to10, _ := IPFrame(prog, 7, 10, 1234, 80, []byte("a"))
	to11, _ := IPFrame(prog, 7, 11, 1234, 80, []byte("b"))
	route := func(dst, port uint64) p4ir.Entry {
		return p4ir.Entry{Matches: []p4ir.KeyMatch{{Value: dst}}, Action: "fwd",
			Params: map[string]uint64{"port": port}}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, c := range []struct {
					frame []byte
					port  uint64
				}{{to10, 2}, {to11, 3}} {
					outs, err := in.Process(c.frame, 1)
					if err != nil || len(outs) > 1 || len(outs) == 1 && outs[0].Port != c.port {
						errs <- "process: unexpected outcome"
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		// Grow the table past its first backing arrays, then clear it.
		for dst := uint64(20); dst < 40; dst++ {
			if err := in.InstallEntry("ipv4_fwd", route(dst, 9)); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.InstallEntry("ipv4_fwd", route(11, 3)); err != nil {
			t.Fatal(err)
		}
		if err := in.ClearTable("ipv4_fwd"); err != nil {
			t.Fatal(err)
		}
		if err := in.InstallEntry("ipv4_fwd", route(10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if es, _ := in.Entries("ipv4_fwd"); len(es) != 1 || es[0].Matches[0].Value != 10 {
		t.Fatalf("final entries %+v", es)
	}
}
