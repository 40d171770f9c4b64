package observatory

import "testing"

// TestHealthWindowRollover pins the per-place rolling outcome window
// across its fill→rollover boundary: once winN reaches the window, each new outcome must displace exactly the oldest one, and
// winFails must track the displaced value — never going negative and
// never counting an outcome that has rotated out. The freshness
// watchdog's burn-rate evaluator leans on the same sliding-window
// arithmetic, so a drift here silently corrupts both planes.
func TestHealthWindowRollover(t *testing.T) {
	p := newPlace("sw2")

	// Fill: a window of clean outcomes.
	for i := 0; i < window; i++ {
		p.observe(false)
	}
	if p.winN != window || p.winFails != 0 {
		t.Fatalf("after fill: winN=%d winFails=%d, want %d/0", p.winN, p.winFails, window)
	}

	// Rollover: half a window of failures displaces half the clean
	// outcomes.
	for i := 0; i < window/2; i++ {
		p.observe(true)
	}
	if p.winN != window {
		t.Fatalf("winN grew past the window: %d", p.winN)
	}
	if p.winFails != window/2 {
		t.Fatalf("winFails = %d, want %d", p.winFails, window/2)
	}
	if got := p.windowRate(); got != 0.5 {
		t.Fatalf("windowRate = %v, want 0.5", got)
	}
	if !p.flagged {
		t.Fatal("place not flagged at 0.5 window rate over a clean baseline")
	}

	// Recovery: a window of clean outcomes rotates every failure out;
	// the decrement side of the rollover must land winFails back at
	// exactly zero, not below.
	for i := 0; i < window; i++ {
		p.observe(false)
		if p.winFails < 0 {
			t.Fatalf("winFails went negative: %d", p.winFails)
		}
	}
	if p.winFails != 0 || p.windowRate() != 0 {
		t.Fatalf("after recovery: winFails=%d rate=%v, want 0/0", p.winFails, p.windowRate())
	}
	if !p.flagged {
		t.Fatal("flagging must be sticky across recovery (flaggedAt is forensic state)")
	}
}

// TestHealthWindowLongRun cross-checks the ring arithmetic against a
// reference model over many wraps of the head pointer.
func TestHealthWindowLongRun(t *testing.T) {
	p := newPlace("sw1")

	var history []bool
	for i := 0; i < 12*window; i++ {
		fail := i%3 == 0 // deterministic mixed pattern
		history = append(history, fail)
		p.observe(fail)

		want := 0
		start := len(history) - window
		if start < 0 {
			start = 0
		}
		for _, f := range history[start:] {
			if f {
				want++
			}
		}
		if p.winFails != want {
			t.Fatalf("obs %d: winFails=%d, reference=%d", i, p.winFails, want)
		}
	}
}

// TestHealthFlagBoundary: after a clean baseline of 16 outcomes, 5
// failures (5/21 = 0.24) do not flag a place and the 6th (6/22 = 0.27)
// does: the rate test alone keeps one unlucky packet from flagging.
func TestHealthFlagBoundary(t *testing.T) {
	p := newPlace("sw2")
	for i := 0; i < baseline; i++ {
		p.observe(false)
	}
	for i := 1; i <= 5; i++ {
		p.observe(true)
		if p.flagged {
			t.Fatalf("flagged after %d failures (window rate %.3f)", i, p.windowRate())
		}
	}
	p.observe(true)
	if !p.flagged {
		t.Fatalf("not flagged after 6 failures (window rate %.3f)", p.windowRate())
	}
}
