package fleetscope

import (
	"context"
	"os"
	"sync"
	"time"

	"pera/internal/telemetry"
)

// Backoff and staleness, in scrape intervals.
const (
	// maxBackoff caps the exponential backoff between attempts at a
	// failing target.
	maxBackoff = 8
	// staleAfter marks a target stale when its last successful scrape
	// is older than this even without failed attempts (a hung loop).
	staleAfter = 3
)

// Config tunes an Aggregator.
type Config struct {
	// Name labels the fleet in views and renders. Default "fleet".
	Name string
	// Interval is the per-target scrape cadence. Default 1s.
	Interval time.Duration
	// Timeout bounds each HTTP request. Default min(Interval, 2s).
	Timeout time.Duration
	// DownAfter is how many consecutive failed scrapes turn a target
	// down (the first failure marks it stale). Default 2, so a killed
	// process is down within two scrape intervals.
	DownAfter int
	// TargetsFile, when set, is re-read whenever its mtime changes; the
	// parsed targets are merged over the static list (file wins on name
	// collisions, removed lines drop the target).
	TargetsFile string
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "fleet"
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
		if c.Timeout > c.Interval {
			c.Timeout = c.Interval
		}
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// targetState is one target's scrape loop state plus its last-known
// data. Mutable fields are guarded by the aggregator mutex; the loop
// goroutine only holds it to publish results, so a slow target's HTTP
// wait never blocks view building.
type targetState struct {
	t    Target
	stop chan struct{}
	done chan struct{}

	scrapes      uint64
	errors       uint64
	endpointErrs uint64
	consecFails  int
	lastAttempt  int64 // unix ns of last attempt (success or failure)
	lastOK       int64 // unix ns of last success, 0 = never
	latencyNS    int64
	lastErr      string

	last *Scrape // last successful scrape, nil until the first
}

// state classifies the target's health at now (unix ns).
func (ts *targetState) state(cfg Config, now int64) string {
	switch {
	case ts.consecFails >= cfg.DownAfter || ts.lastOK == 0 && ts.consecFails > 0:
		return StateDown
	case ts.consecFails > 0:
		return StateStale
	case ts.lastOK == 0:
		return StateStale // no attempt has completed yet
	case now-ts.lastOK > int64(staleAfter*cfg.Interval):
		return StateStale
	default:
		return StateUp
	}
}

// Aggregator owns the target set and the fleet model. Start launches
// one scrape loop per target plus a reload watcher for the targets
// file; View assembles the merged fleet model from the latest scrapes.
type Aggregator struct {
	cfg    Config
	client *Client

	mu       sync.Mutex
	targets  map[string]*targetState
	static   []Target
	fileMod  time.Time
	reloads  uint64
	running  bool
	quit     chan struct{}
	watchEnd chan struct{}

	reg *telemetry.Registry // pera_fleet_* home, nil until Instrument

	// viewMu guards the metrics-sampling view cache (see cachedView).
	viewMu    sync.Mutex
	viewAt    time.Time
	viewCache *FleetView
}

// New builds an aggregator over the static target list (may be empty
// when cfg.TargetsFile provides the fleet).
func New(cfg Config, targets []Target) *Aggregator {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:     cfg,
		client:  NewClient(cfg.Timeout),
		targets: make(map[string]*targetState),
		static:  append([]Target(nil), targets...),
		quit:    make(chan struct{}),
	}
	a.mu.Lock()
	a.applyTargetsLocked(a.resolveTargets())
	a.mu.Unlock()
	return a
}

// resolveTargets merges the static list with the targets file (when
// configured and readable). Never called with the lock held when it
// touches the filesystem — callers pass the result into
// applyTargetsLocked.
func (a *Aggregator) resolveTargets() []Target {
	if a.cfg.TargetsFile == "" {
		return a.static
	}
	fromFile, err := LoadTargetsFile(a.cfg.TargetsFile)
	if err != nil {
		// Unreadable/unparseable file: keep the static set; the watcher
		// retries on the next mtime change.
		return a.static
	}
	return mergeTargets(a.static, fromFile)
}

// applyTargetsLocked reconciles the live target set against want:
// new targets get a state row (and a loop when running), removed
// targets have their loops stopped and rows dropped.
func (a *Aggregator) applyTargetsLocked(want []Target) {
	seen := make(map[string]bool, len(want))
	for _, t := range want {
		seen[t.Name] = true
		if ts, ok := a.targets[t.Name]; ok {
			ts.t = t // URL may have changed; the loop re-reads it per attempt
			continue
		}
		ts := &targetState{t: t, stop: make(chan struct{}), done: make(chan struct{})}
		a.targets[t.Name] = ts
		a.registerTargetLocked(ts)
		if a.running {
			go a.scrapeLoop(ts)
		} else {
			close(ts.done)
		}
	}
	for name, ts := range a.targets {
		if !seen[name] {
			if a.running {
				close(ts.stop)
			}
			delete(a.targets, name)
		}
	}
}

// Targets returns the current target list, sorted by name.
func (a *Aggregator) Targets() []Target {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Target, 0, len(a.targets))
	for _, name := range sortedNames(a.targets) {
		out = append(out, a.targets[name].t)
	}
	return out
}

// Start launches the scrape loops. Idempotent.
func (a *Aggregator) Start() {
	a.mu.Lock()
	if a.running {
		a.mu.Unlock()
		return
	}
	a.running = true
	for _, ts := range a.targets {
		ts.done = make(chan struct{})
		go a.scrapeLoop(ts)
	}
	a.mu.Unlock()
	if a.cfg.TargetsFile != "" {
		a.watchEnd = make(chan struct{})
		go a.watchTargetsFile()
	}
}

// Close stops every loop and the file watcher.
func (a *Aggregator) Close() {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return
	}
	a.running = false
	close(a.quit)
	loops := make([]*targetState, 0, len(a.targets))
	for _, ts := range a.targets {
		close(ts.stop)
		loops = append(loops, ts)
	}
	a.mu.Unlock()
	for _, ts := range loops {
		<-ts.done
	}
	if a.watchEnd != nil {
		<-a.watchEnd
	}
}

// scrapeLoop drives one target: scrape, publish, sleep. The sleep is
// the configured interval while healthy and an exponentially backed-off
// multiple of it while failing (capped at maxBackoff intervals), so a
// dead target costs the fleet a bounded trickle of connection attempts
// instead of a hot error loop.
func (a *Aggregator) scrapeLoop(ts *targetState) {
	defer close(ts.done)
	for {
		a.scrapeOnce(ts)

		a.mu.Lock()
		delay, limit := a.cfg.Interval, maxBackoff*a.cfg.Interval
		if n := ts.consecFails; n > 0 {
			for i := 1; i < n && delay < limit; i++ {
				delay *= 2
			}
			delay = min(delay, limit)
		}
		a.mu.Unlock()

		select {
		case <-ts.stop:
			return
		case <-time.After(delay):
		}
	}
}

// scrapeOnce runs a single attempt against one target and publishes the
// outcome under the lock.
func (a *Aggregator) scrapeOnce(ts *targetState) {
	a.mu.Lock()
	target := ts.t
	a.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.Timeout)
	s, err := a.client.ScrapeTarget(ctx, target, a.cfg.Clock)
	cancel()

	a.mu.Lock()
	defer a.mu.Unlock()
	ts.lastAttempt = nowNS(a.cfg.Clock)
	ts.scrapes++
	if err != nil {
		ts.errors++
		ts.consecFails++
		ts.lastErr = err.Error()
		return
	}
	ts.consecFails = 0
	ts.lastErr = ""
	ts.lastOK = s.AtNS
	ts.latencyNS = s.LatencyNS
	ts.endpointErrs += uint64(s.EndpointErrs)
	ts.last = s
}

// ScrapeAll runs one synchronous scrape round over every target (in
// parallel) and returns when all attempts complete — the one-shot mode
// behind `attestctl fleet -endpoints ...` and the harness tests.
func (a *Aggregator) ScrapeAll() {
	a.mu.Lock()
	loops := make([]*targetState, 0, len(a.targets))
	for _, ts := range a.targets {
		loops = append(loops, ts)
	}
	a.mu.Unlock()
	var wg sync.WaitGroup
	for _, ts := range loops {
		wg.Add(1)
		go func(ts *targetState) {
			defer wg.Done()
			a.scrapeOnce(ts)
		}(ts)
	}
	wg.Wait()
}

// watchTargetsFile polls the targets file's mtime at the scrape
// interval and reconciles the target set when it changes.
func (a *Aggregator) watchTargetsFile() {
	defer close(a.watchEnd)
	for {
		select {
		case <-a.quit:
			return
		case <-time.After(a.cfg.Interval):
		}
		info, err := os.Stat(a.cfg.TargetsFile)
		if err != nil {
			continue
		}
		a.mu.Lock()
		changed := !info.ModTime().Equal(a.fileMod)
		a.fileMod = info.ModTime()
		a.mu.Unlock()
		if !changed {
			continue
		}
		want := a.resolveTargets()
		a.mu.Lock()
		a.applyTargetsLocked(want)
		a.reloads++
		a.mu.Unlock()
	}
}

// Reloads reports how many times the targets file was re-applied.
func (a *Aggregator) Reloads() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reloads
}
