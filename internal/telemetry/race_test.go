package telemetry

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives every instrument kind from many goroutines
// while a reader snapshots continuously — the registry's core contract is
// that sampling never stops writers and vice versa. Run under -race this
// is the package's memory-safety proof; without -race it still checks
// that no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	const (
		writers = 8
		iters   = 2000
	)
	reg := NewRegistry()
	c := reg.Counter("hammer_total")
	g := reg.Gauge("hammer_gauge")
	h := reg.Histogram("hammer_seconds", nil)
	reg.RegisterFunc("hammer_lazy", KindCounter, func() float64 { return float64(c.Value()) })
	tr := NewFlowTracer(128)
	tr.Instrument(reg)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // snapshot + encode loop
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			_ = snap.Value("hammer_total")
			if m, ok := snap.Get("hammer_seconds"); ok && m.Hist != nil {
				_ = m.Hist.Quantile(0.95)
			}
		}
	}()
	go func() { // tracer reader loop
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tr.Spans()
			_ = tr.Len()
			_ = tr.Recorded()
		}
	}()

	var writersWG sync.WaitGroup
	writersWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writersWG.Done()
			flow := "flow-" + strconv.Itoa(w)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%7) * 1e-5)
				tr.RecordChild(SpanContext{}, flow, "hammer", StageSign, time.Time{}, time.Microsecond, "")
				if i%100 == 0 {
					// Concurrent get-or-create against live registration.
					reg.Counter("hammer_total").Add(0)
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if got := c.Value(); got != writers*iters {
		t.Fatalf("counter lost increments: %d, want %d", got, writers*iters)
	}
	hs := h.Sample().Hist
	if hs.Count != writers*iters {
		t.Fatalf("histogram lost observations: %d, want %d", hs.Count, writers*iters)
	}
	if hs.Buckets[len(hs.Buckets)-1].Count != hs.Count {
		t.Fatalf("cumulative +Inf bucket %d != count %d", hs.Buckets[len(hs.Buckets)-1].Count, hs.Count)
	}
	if got := tr.Recorded(); got != writers*iters {
		t.Fatalf("tracer lost spans: %d, want %d", got, writers*iters)
	}
	if got := tr.Len(); got != 128 {
		t.Fatalf("ring holds %d spans, want capacity 128", got)
	}
}
