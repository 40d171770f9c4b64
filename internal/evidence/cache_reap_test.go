package evidence

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pera/internal/auditlog"
	"pera/internal/telemetry"
)

// TestCacheLenIsPure pins the Len/Reap split: Len must not evict, so a
// telemetry gauge sampling cache size cannot change what it observes.
func TestCacheLenIsPure(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewCacheWithClock(clk.Now)
	c.Put("sw1", "prog", DetailProgram, sampleMeasurement())
	c.Put("sw2", "prog", DetailProgram, sampleMeasurement())
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	clk.Advance(2 * time.Hour) // past the 1h program inertia

	// Expired entries are still resident: Len reads, never reaps.
	if got := c.Len(); got != 2 {
		t.Fatalf("len after expiry = %d, want 2 (expired but unreaped)", got)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("second len = %d — Len mutated the cache", got)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("Len drove %d evictions", ev)
	}

	// Reap is the explicit eviction pass.
	if n := c.Reap(); n != 2 {
		t.Fatalf("reap removed %d, want 2", n)
	}
	if c.Len() != 0 || c.Stats().Evictions != 2 {
		t.Fatalf("after reap: len=%d stats=%+v", c.Len(), c.Stats())
	}
	if n := c.Reap(); n != 0 {
		t.Fatalf("second reap removed %d", n)
	}
}

// TestCachePutReaps pins the other half of the split: entries that are
// never re-requested still get evicted, because Put sweeps its shard.
func TestCachePutReaps(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewCacheWithClock(clk.Now)
	c.Put("sw1", "prog", DetailProgram, sampleMeasurement())
	clk.Advance(2 * time.Hour)
	// Same (place, target, detail) → same shard: the expired entry is
	// reaped before the new one is stored.
	c.Put("sw1", "prog", DetailProgram, sampleMeasurement())
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("put-side reaping evicted %d, want 1", ev)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestCacheConcurrentPutReap races explicit Reap passes against Puts
// (which sweep their own shard) over a population of expired entries.
// Whatever the interleaving, each expired entry must be evicted exactly
// once — the eviction counter can neither double-count an entry claimed
// by two sweepers nor miss one — and every eviction must land on the
// audit ledger as a cache_expire record with the chain still intact.
func TestCacheConcurrentPutReap(t *testing.T) {
	const expired = 64
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewCacheWithClock(clk.Now)

	var ledger bytes.Buffer
	aud := auditlog.NewWriter(&ledger, auditlog.Options{})
	c.SetAudit(aud)

	for i := 0; i < expired; i++ {
		c.Put(fmt.Sprintf("sw%d", i), "prog", DetailProgram, sampleMeasurement())
	}
	clk.Advance(2 * time.Hour) // past the 1h program inertia

	var (
		wg      sync.WaitGroup
		reaped  atomic.Int64
		workers = 8
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				reaped.Add(int64(c.Reap()))
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Fresh keys: stored at the advanced clock, not expired.
				c.Put(fmt.Sprintf("fresh%d-%d", g, i), "prog", DetailProgram, sampleMeasurement())
			}
		}(g)
	}
	wg.Wait()

	if ev := c.Stats().Evictions; ev != expired {
		t.Fatalf("evictions = %d, want exactly %d", ev, expired)
	}
	if n := reaped.Load(); n > expired {
		t.Fatalf("Reap calls claimed %d removals, more than the %d expired entries", n, expired)
	}
	if got, want := c.Len(), workers*4; got != want {
		t.Fatalf("len = %d, want %d fresh entries", got, want)
	}
	if n := c.Reap(); n != 0 {
		t.Fatalf("follow-up reap removed %d fresh entries", n)
	}

	// Every eviction is on the ledger exactly once, and the chain holds.
	aud.Close()
	if _, err := auditlog.VerifyReader(bytes.NewReader(ledger.Bytes()), auditlog.DevKey()); err != nil {
		t.Fatalf("ledger verification: %v", err)
	}
	recs, err := auditlog.ReadRecords(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evicts := auditlog.Query{Event: string(auditlog.EventCacheExpire)}.Filter(recs)
	if len(evicts) != expired {
		t.Fatalf("cache_expire records = %d, want %d", len(evicts), expired)
	}
}

// TestCacheExpiryBoundary pins the freshness boundary: an entry read in
// the exact tick its inertia window closes counts stale, not fresh.
// One tick earlier it is still served; at the boundary it expires, is
// counted as a miss+eviction, and lands on the ledger as cache_expire.
func TestCacheExpiryBoundary(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewCacheWithClock(clk.Now)
	var ledger bytes.Buffer
	aud := auditlog.NewWriter(&ledger, auditlog.Options{})
	c.SetAudit(aud)

	c.Put("sw1", "prog", DetailProgram, sampleMeasurement())
	ttl := DetailProgram.Inertia()

	clk.Advance(ttl - time.Nanosecond)
	if _, ok := c.Get("sw1", "prog", DetailProgram); !ok {
		t.Fatal("one tick before expiry: entry must still be fresh")
	}

	clk.Advance(time.Nanosecond) // now == expires exactly
	if _, ok := c.Get("sw1", "prog", DetailProgram); ok {
		t.Fatal("read in the expiry tick returned fresh evidence")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 eviction", st)
	}

	aud.Close()
	recs, err := auditlog.ReadRecords(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(auditlog.Query{Event: string(auditlog.EventCacheExpire)}.Filter(recs)); n != 1 {
		t.Fatalf("cache_expire records = %d, want 1", n)
	}
}

// TestCacheNotify exercises the SetNotify hook: Put, Hit, and Expire
// events arrive in order with the resident age and stored TTL, and a
// per-detail SetTTL override replaces the paper's inertia window.
func TestCacheNotify(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewCacheWithClock(clk.Now)
	c.SetTTL(DetailTables, 16*time.Second) // compress the 1min window

	var mu sync.Mutex
	var events []CacheEvent
	c.SetNotify(func(e CacheEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})

	c.Put("sw1", "tables", DetailTables, sampleMeasurement())
	clk.Advance(10 * time.Second)
	if _, ok := c.Get("sw1", "tables", DetailTables); !ok {
		t.Fatal("entry should be fresh at 10s under the 16s override")
	}
	clk.Advance(6 * time.Second) // age 16s == overridden TTL
	if _, ok := c.Get("sw1", "tables", DetailTables); ok {
		t.Fatal("entry must be stale at the overridden TTL")
	}

	mu.Lock()
	got := append([]CacheEvent(nil), events...)
	mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("events = %d, want 3 (put, hit, expire)", len(got))
	}
	want := []CacheEventKind{CachePut, CacheHit, CacheExpire}
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, got[i].Kind, k)
		}
		if got[i].Place != "sw1" || got[i].Detail != DetailTables {
			t.Fatalf("event %d = %+v", i, got[i])
		}
		if got[i].TTL != 16*time.Second {
			t.Fatalf("event %d TTL = %v, want overridden 16s", i, got[i].TTL)
		}
	}
	if got[1].Age != 10*time.Second {
		t.Fatalf("hit age = %v, want 10s", got[1].Age)
	}
	if got[2].Age != 16*time.Second {
		t.Fatalf("expire age = %v, want 16s", got[2].Age)
	}

	// Restoring the default re-arms the paper's inertia table.
	c.SetTTL(DetailTables, 0)
	c.Put("sw1", "tables", DetailTables, sampleMeasurement())
	mu.Lock()
	last := events[len(events)-1]
	mu.Unlock()
	if last.Kind != CachePut || last.TTL != DetailTables.Inertia() {
		t.Fatalf("post-restore put = %+v, want default inertia TTL", last)
	}
}

func TestCacheInstrument(t *testing.T) {
	c := NewCache()
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	c.Put("sw1", "prog", DetailProgram, sampleMeasurement())
	c.Get("sw1", "prog", DetailProgram) // hit
	c.Get("sw1", "none", DetailProgram) // miss
	snap := reg.Snapshot()
	if v := snap.Value("pera_evidence_cache_hits_total"); v != 1 {
		t.Fatalf("hits = %v", v)
	}
	if v := snap.Value("pera_evidence_cache_misses_total"); v != 1 {
		t.Fatalf("misses = %v", v)
	}
	if v := snap.Value("pera_evidence_cache_entries"); v != 1 {
		t.Fatalf("entries = %v", v)
	}
}

func TestVerifyMemoInstrument(t *testing.T) {
	m := NewVerifyMemo(0)
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	s := testSigner("sw1")
	ev := Sign(s, Seq(sampleMeasurement(), Nonce([]byte("n"))))
	keys := KeyMap{"sw1": s.Public()}
	for i := 0; i < 2; i++ {
		if _, _, err := m.VerifyEncoded(Encode(ev), keys, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One hit per signature walked, one miss per full verification.
	snap := reg.Snapshot()
	if v := snap.Value("pera_verify_memo_misses_total"); v != 1 {
		t.Fatalf("misses = %v", v)
	}
	if v := snap.Value("pera_verify_memo_hits_total"); v != 2 {
		t.Fatalf("hits = %v", v)
	}
	if v := snap.Value("pera_verify_memo_entries"); v != 1 {
		t.Fatalf("entries = %v", v)
	}
}
