// Package planes is the daemons' shared observability wiring: it
// registers the plane flags a daemon takes (-telemetry, -trace, -audit,
// -pprof, -recorder*, -profile*), opens the planes those flags ask for,
// and starts the flight recorder, profiler and telemetry server wired
// to them.
package planes

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"pera/internal/auditlog"
	"pera/internal/freshness"
	"pera/internal/observatory"
	"pera/internal/profiler"
	"pera/internal/recorder"
	"pera/internal/telemetry"
)

// Flag selects a group of plane flags.
type Flag uint

const (
	Telemetry Flag = 1 << iota // -telemetry
	Trace                      // -trace
	Audit                      // -audit
	Pprof                      // -pprof
	Recorder                   // -recorder, -recorder-interval, -recorder-debounce
	Profile                    // -profile, -profile-window, -profile-mutex, -profile-block
)

// Flags are the parsed plane flags; unregistered ones keep their zero
// value.
type Flags struct {
	fs *flag.FlagSet

	Telemetry        string
	Trace            uint
	Audit            string
	Pprof            bool
	Recorder         string
	RecorderInterval time.Duration
	RecorderDebounce time.Duration
	Profile          bool
	ProfileWindow    time.Duration
	ProfileMutex     int
	ProfileBlock     int
}

// Register defines the selected flag groups on fs.
func Register(fs *flag.FlagSet, which Flag) *Flags {
	f := &Flags{fs: fs}
	if which&Telemetry != 0 {
		fs.StringVar(&f.Telemetry, "telemetry", "", "serve telemetry (/metrics, /metrics.json, /trace) on this address, e.g. :9464 (:0 picks a free port)")
	}
	if which&Trace != 0 {
		fs.UintVar(&f.Trace, "trace", 0, "trace 1-in-N flows (0 = off, 1 = every flow); spans served at the -telemetry /trace endpoint")
	}
	if which&Audit != 0 {
		fs.StringVar(&f.Audit, "audit", "", "write the hash-chained RATS audit ledger to this file (inspect with `attestctl audit`)")
	}
	if which&Pprof != 0 {
		fs.BoolVar(&f.Pprof, "pprof", false, "with -telemetry: also expose /debug/pprof/* on the telemetry server")
	}
	if which&Recorder != 0 {
		fs.StringVar(&f.Recorder, "recorder", "", "enable the attestation flight recorder: metric history, anomaly detection, and incident bundles written into this directory (inspect with `attestctl incident`)")
		fs.DurationVar(&f.RecorderInterval, "recorder-interval", time.Second, "with -recorder: metric scrape interval")
		fs.DurationVar(&f.RecorderDebounce, "recorder-debounce", 30*time.Second, "with -recorder: minimum spacing between incident bundles")
	}
	if which&Profile != 0 {
		fs.BoolVar(&f.Profile, "profile", false, "enable the continuous profiler: stage-attributed CPU at /profile.json, raw artifacts at /profile/pprof (inspect with `attestctl profile`)")
		fs.DurationVar(&f.ProfileWindow, "profile-window", 2*time.Second, "with -profile: one CPU capture window")
		fs.IntVar(&f.ProfileMutex, "profile-mutex", 0, "runtime.SetMutexProfileFraction: sample 1-in-N mutex contention events (0 = off)")
		fs.IntVar(&f.ProfileBlock, "profile-block", 0, "runtime.SetBlockProfileRate: sample blocking events lasting >= N ns (0 = off)")
	}
	return f
}

// Setup describes the process the planes serve.
type Setup struct {
	Name    string    // log prefix, e.g. "attestd"
	Service string    // recorder and profiler service name, e.g. "attestd/sw1"
	Log     io.Writer // progress lines
	// Key and KeyID seal the audit ledger and check incident bundles'
	// ledger tails; nil selects the development key.
	Key   []byte
	KeyID string
	// Registry opens a metrics registry even when no flag asks for one.
	Registry bool
	// Serve is the telemetry address when the process has no -telemetry
	// flag; Extras are its own endpoints, mounted beside the planes'.
	Serve  string
	Extras []telemetry.Endpoint
	// Collector and Watchdog, when set, are bundled by the recorder and
	// served beside /metrics; watchdog alerts trigger bundles.
	Collector *observatory.Collector
	Watchdog  *freshness.Watchdog
	// Capture leaves the profiler's wall-clock loop off: the caller
	// profiles its own timed phase with CaptureWhile.
	Capture bool
}

// Planes are the planes a process runs; nil fields are off.
type Planes struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.FlowTracer
	Audit    *auditlog.Writer
	Recorder *recorder.Recorder
	Profiler *profiler.Profiler
	Server   *telemetry.Server

	f      *Flags
	s      Setup
	sealed bool
}

// Open creates the ledger, tracer and registry the flags ask for, so
// the caller can attach its components before Start.
func (f *Flags) Open(s Setup) (*Planes, error) {
	if f.ProfileMutex > 0 {
		runtime.SetMutexProfileFraction(f.ProfileMutex)
	}
	if f.ProfileBlock > 0 {
		runtime.SetBlockProfileRate(f.ProfileBlock)
	}
	p := &Planes{f: f, s: s}
	if f.Audit != "" {
		w, err := auditlog.Create(f.Audit, auditlog.Options{KeyID: s.KeyID, Key: s.Key})
		if err != nil {
			return nil, err
		}
		p.Audit = w
		p.logf("audit ledger -> %s (verify: attestctl audit verify -ledger %s)", f.Audit, f.Audit)
	}
	if f.Trace > 0 {
		p.Tracer = telemetry.NewFlowTracer(0)
		p.Tracer.SetSampleEvery(uint32(f.Trace))
		p.logf("tracing 1-in-%d flows (attestctl trace <flow|trace-id> to inspect)", f.Trace)
	}
	if s.Registry || f.Telemetry != "" || f.Recorder != "" || f.Profile {
		p.Registry = telemetry.NewRegistry()
		p.Tracer.Instrument(p.Registry)
		p.Audit.Instrument(p.Registry)
	}
	return p, nil
}

// Start starts the flight recorder, the profiler and the telemetry
// server the flags ask for, each wired to the open planes. Regressions
// and anomalies page through stderr and the ledger, and trigger
// incident bundles that carry the profiler's artifacts.
func (p *Planes) Start() error {
	f, s := p.f, p.s
	if f.Recorder != "" {
		rec := recorder.New(recorder.Config{
			Interval: f.RecorderInterval,
			Service:  s.Service,
			Bundle: recorder.BundlerConfig{
				Dir: f.Recorder, Debounce: f.RecorderDebounce, Key: s.Key, KeyID: s.KeyID,
			},
		})
		rec.SetRegistry(p.Registry)
		rec.SetTracer(p.Tracer)
		rec.SetLedger(p.Audit, f.Audit)
		rec.SetCollector(s.Collector)
		rec.SetWatchdog(s.Watchdog)
		rec.SetConfigInfo(f.values())
		rec.Instrument(p.Registry)
		p.addSinks(rec.AddSink)
		if s.Watchdog != nil {
			s.Watchdog.AddSink(rec.Sink())
		}
		rec.Start()
		p.Recorder = rec
		p.logf("flight recorder on — incident bundles -> %s", f.Recorder)
	}
	if f.Profile {
		prof := profiler.New(profiler.Options{
			Service: s.Service, Window: f.ProfileWindow, Registry: p.Registry,
			Diff: profiler.DiffConfig{AutoBaseline: true},
		})
		p.addSinks(prof.AddSink)
		if p.Recorder != nil {
			prof.AddSink(p.Recorder.Sink())
			p.Recorder.SetProfiler(prof)
		}
		p.Profiler = prof
		if s.Capture {
			p.logf("continuous profiler on — capturing the timed appraisal phase")
		} else {
			prof.Start()
			p.logf("continuous profiler on — %v windows at /profile.json (attestctl profile top)", f.ProfileWindow)
		}
	}
	addr := f.Telemetry
	if addr == "" {
		addr = s.Serve
	}
	if addr == "" {
		return nil
	}
	extras := s.Extras
	if s.Collector != nil {
		extras = append(extras, s.Collector.Endpoint())
	}
	extras = append(extras, s.Watchdog.Endpoints()...)
	if p.Recorder != nil {
		extras = append(extras, p.Recorder.Endpoint())
	}
	if p.Profiler != nil {
		extras = append(extras, p.Profiler.Endpoints()...)
	}
	if f.Pprof {
		extras = append(extras, telemetry.PprofEndpoints()...)
	}
	srv, err := telemetry.Serve(addr, p.Registry, p.Tracer, extras...)
	if err != nil {
		return err
	}
	p.Server = srv
	p.logf("telemetry serving on http://%s/metrics", srv.Addr())
	return nil
}

// Seal closes the ledger once, reporting its final size.
func (p *Planes) Seal() {
	if p.Audit != nil && !p.sealed {
		p.sealed = true
		p.Audit.Close()
		p.logf("audit ledger sealed — %d records, %d dropped", p.Audit.Records(), p.Audit.Dropped())
	}
}

// Wait blocks until the process is interrupted, then seals the ledger.
func (p *Planes) Wait() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	p.logf("shutting down")
	p.Seal()
}

// Close stops what Start started and seals the ledger.
func (p *Planes) Close() {
	if p.Server != nil {
		p.Server.Close()
	}
	p.Profiler.Close()
	p.Recorder.Close()
	p.Audit.Close()
}

// addSinks pages findings to stderr and, when open, the ledger.
func (p *Planes) addSinks(add func(freshness.Sink)) {
	add(freshness.NewLogSink(os.Stderr))
	if p.Audit != nil {
		add(freshness.NewAuditSink(p.Audit))
	}
}

func (p *Planes) logf(format string, args ...any) {
	fmt.Fprintf(p.s.Log, p.s.Name+": "+format+"\n", args...)
}

// values flattens the whole parsed flag set for a bundle's config.json.
func (f *Flags) values() map[string]string {
	kv := make(map[string]string)
	f.fs.VisitAll(func(fl *flag.Flag) { kv[fl.Name] = fl.Value.String() })
	return kv
}
