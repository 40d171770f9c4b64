package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The test binary doubles as attestctl: with runMainEnv set it runs main
// on its own arguments, so each golden case is one real process with a
// real exit status, stdout and stderr.
const runMainEnv = "ATTESTCTL_TEST_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/golden/*.golden from this build")

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		// The real binary's command line holds only attestctl's flags;
		// the testing package's must not show up in `attestctl -h`.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// surfaceServer serves the checked-in surface JSON under
// testdata/surface the way a telemetry server does: one file per path,
// /history.json?metric=M from history_M.json, /trace from trace.json,
// and 404 for any surface without a file.
func surfaceServer(t *testing.T) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/")
		if m := r.URL.Query().Get("metric"); m != "" {
			name = "history_" + m + ".json"
		}
		if name == "trace" {
			name = "trace.json"
		}
		data, err := os.ReadFile(filepath.Join("testdata", "surface", name))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// closedAddr returns a loopback address nothing listens on.
func closedAddr(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// workdir copies the offline inputs into a fresh directory, so the paths
// attestctl prints are relative and the bundle's listed creation time
// (its file mtime) is fixed. The bundle and the CPU profile are checked
// in under names the repository's .gitignore does not match.
func workdir(t *testing.T) string {
	dir := t.TempDir()
	for src, dst := range map[string]string{"ledger.jsonl": "ledger.jsonl", "cpu.pb.gz": "cpu.pprof"} {
		data, err := os.ReadFile(filepath.Join("testdata", src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, dst), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// One sample and no sample type: the live profiler skips the sample.
	if err := os.WriteFile(filepath.Join(dir, "no_sample_type.pprof"), []byte{0x12, 0x02, 0x10, 0x05, 0x32, 0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	bundles, err := filepath.Glob(filepath.Join("testdata", "bundles", "*.tar.gz"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no incident bundle under testdata/bundles: %v", err)
	}
	if err := os.Mkdir(filepath.Join(dir, "incidents"), 0o755); err != nil {
		t.Fatal(err)
	}
	created := time.Unix(1792393300, 0)
	for _, b := range bundles {
		data, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "incidents", filepath.Base(b))
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(dst, created, created); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// run runs the test binary as attestctl in dir and returns what it
// printed and its exit status; err reports a run that could not start
// or did not end within 30s.
func run(dir string, args ...string) (stdout, stderr string, exit int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", "", 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Args[0] = "attestctl"
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1", "TZ=UTC")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case ctx.Err() != nil:
		return "", "", 0, fmt.Errorf("attestctl %v: still running after 30s", args)
	case errors.As(err, &ee):
		exit, err = ee.ExitCode(), nil
	}
	return out.String(), errOut.String(), exit, err
}

// TestGolden pins stdout, stderr and the exit status of every verb:
// live verbs against servers that serve the checked-in surface JSON (or
// answer 404 or 500, or are not there at all), offline verbs against a
// checked-in ledger, incident bundle and CPU profile, and each verb's
// -h. Server addresses print as {live}, {404}, {500} and {down}.
func TestGolden(t *testing.T) {
	live := surfaceServer(t)
	notFound := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(notFound.Close)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "surface unavailable", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	down := "http://" + closedAddr(t)
	urls := []struct{ tag, url string }{
		{"{live}", live.URL}, {"{404}", notFound.URL}, {"{500}", broken.URL}, {"{down}", down},
	}
	dir := workdir(t)

	const trace = "c0e2a2a8ee18292c2ac2199067dcd793"
	cases := []struct {
		name string
		args string
	}{
		{"coverage", "coverage -collector {live}"},
		{"coverage_json", "coverage -collector {live} -json"},
		{"alerts", "alerts -collector {live}"},
		{"alerts_json", "alerts -collector {live} -json"},
		{"top", "top -collector {live} -n 1"},
		{"paths", "paths -collector {live} -n 2"},
		{"top_json", "top -collector {live} -json"},
		{"history_index", "history -collector {live}"},
		{"history_metric", "history pera_evidence_cache_misses_total -collector {live}"},
		{"history_metric_table", "history pera_evidence_cache_misses_total -collector {live} -table"},
		{"history_json", "history -collector {live} -json"},
		{"history_unknown_metric", "history pera_no_such_metric -collector {live}"},
		{"profile_top", "profile top -collector {live}"},
		{"profile_diff", "profile diff -collector {live}"},
		{"profile_top_json", "profile top -collector {live} -json"},
		{"profile_top_file", "profile top -file cpu.pprof"},
		{"profile_top_file_no_sample_type", "profile top -file no_sample_type.pprof"},
		{"fleet_status", "fleet status -fleet {live}"},
		{"fleet_top", "fleet top -fleet {live}"},
		{"fleet_targets", "fleet targets -fleet {live}"},
		{"fleet_status_json", "fleet status -fleet {live} -json"},
		{"fleet_top_json", "fleet top -fleet {live} -json"},
		{"fleet_targets_json", "fleet targets -fleet {live} -json"},
		{"trace", "trace -endpoints {live} " + trace},
		{"trace_json", "trace -endpoints {live} -json " + trace},
		{"audit_verify", "audit verify -ledger ledger.jsonl"},
		{"audit_query", "audit query -ledger ledger.jsonl -event verdict"},
		{"audit_explain", "audit explain -ledger ledger.jsonl 6f62732d33"},
		{"incident_list", "incident list -dir incidents"},
		{"incident_show_verify", "incident show -dir incidents -verify"},

		// A surface the process does not serve, one that fails, and an
		// endpoint nothing listens on.
		{"coverage_404", "coverage -collector {404}"},
		{"coverage_500", "coverage -collector {500}"},
		{"coverage_down", "coverage -collector {down}"},
		{"top_404", "top -collector {404} -n 1"},
		{"history_500", "history -collector {500}"},
		{"profile_500", "profile top -collector {500}"},
		{"fleet_down", "fleet status -fleet {down}"},
		{"trace_404", "trace -endpoints {404},{down} " + trace},

		{"usage", "help"},
		{"help", "-h"},
		{"audit_usage", "audit"},
		{"profile_usage", "profile"},
		{"incident_usage", "incident"},
		{"audit_verify_h", "audit verify -h"},
		{"audit_query_h", "audit query -h"},
		{"audit_explain_h", "audit explain -h"},
		{"top_h", "top -h"},
		{"paths_h", "paths -h"},
		{"coverage_h", "coverage -h"},
		{"alerts_h", "alerts -h"},
		{"trace_h", "trace -h"},
		{"fleet_status_h", "fleet status -h"},
		{"fleet_top_h", "fleet top -h"},
		{"fleet_targets_h", "fleet targets -h"},
		{"history_h", "history -h"},
		{"incident_list_h", "incident list -h"},
		{"incident_show_h", "incident show -h"},
		{"incident_export_h", "incident export -h"},
		{"profile_top_h", "profile top -h"},
		{"profile_diff_h", "profile diff -h"},
		{"profile_watch_h", "profile watch -h"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := strings.Fields(tc.args)
			for i := range args {
				for _, u := range urls {
					args[i] = strings.ReplaceAll(args[i], u.tag, u.url)
				}
			}
			stdout, stderr, exit, err := run(dir, args...)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", exit, stdout, stderr)
			for _, u := range urls {
				got = strings.ReplaceAll(got, u.url, u.tag)
				got = strings.ReplaceAll(got, strings.TrimPrefix(u.url, "http://"), u.tag)
			}
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("attestctl %s differs from %s\ngot:\n%s\nwant:\n%s", tc.args, path, got, want)
			}
		})
	}
}

// TestLiveVerbsTimeOut: a surface that never answers ends every live
// verb with an error within the client's timeout (fleetscope's default,
// 2s) and its one retry, instead of hanging it.
func TestLiveVerbsTimeOut(t *testing.T) {
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(release) })
	cases := []string{
		"coverage -collector {url}",
		"alerts -collector {url}",
		"top -n 1 -collector {url}",
		"paths -collector {url}",
		"history -collector {url}",
		"profile top -collector {url}",
		"fleet status -fleet {url}",
		"trace -endpoints {url} c0e2a2a8ee18292c2ac2199067dcd793",
	}
	type result struct {
		stderr string
		exit   int
		took   time.Duration
		err    error
	}
	results := make([]result, len(cases))
	dir := t.TempDir()
	var wg sync.WaitGroup
	for i, args := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, stderr, exit, err := run(dir, strings.Fields(strings.ReplaceAll(args, "{url}", stall.URL))...)
			results[i] = result{stderr, exit, time.Since(start), err}
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil || r.exit == 0 || r.took > 2*2*time.Second+3*time.Second {
			t.Errorf("attestctl %s: exit %d after %v (stderr %q, %v), want an error within the timeout and one retry",
				cases[i], r.exit, r.took.Round(time.Millisecond), r.stderr, r.err)
		}
	}
}
