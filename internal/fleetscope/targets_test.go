package fleetscope

import (
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseTargets(t *testing.T) {
	got, err := ParseTargets(" sim1=http://127.0.0.1:9464 , 127.0.0.2:9465/ ,, appr=https://10.0.0.1:9470 ")
	if err != nil {
		t.Fatalf("ParseTargets: %v", err)
	}
	want := []Target{
		{Name: "sim1", URL: "http://127.0.0.1:9464"},
		{Name: "127.0.0.2:9465", URL: "http://127.0.0.2:9465"},
		{Name: "appr", URL: "https://10.0.0.1:9470"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d targets, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("target %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseTargetsEmpty(t *testing.T) {
	for _, in := range []string{"", " ", ",", " , , "} {
		got, err := ParseTargets(in)
		if err != nil || len(got) != 0 {
			t.Fatalf("ParseTargets(%q) = %v, %v; want empty, nil", in, got, err)
		}
	}
}

func TestParseTargetsDuplicateName(t *testing.T) {
	_, err := ParseTargets("a=http://x:1,a=http://y:2")
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name error = %v", err)
	}
	// Same URL under two names is fine; same name is not, even with one
	// entry spelled bare (host:port names itself).
	if _, err := ParseTargets("127.0.0.1:9464=http://z:1,127.0.0.1:9464"); err == nil {
		t.Fatal("bare-URL name colliding with explicit name not rejected")
	}
}

// TestParseTargetsEmptyURL: an empty URL, or one that names no host, is
// refused rather than turned into a scheme-only or path-only URL.
func TestParseTargetsEmptyURL(t *testing.T) {
	for _, in := range []string{"name=", "x=https://", "a=//", "a=http://:9464", "a=ftp://x:1", "a=http://x/%zz"} {
		if got, err := ParseTargets(in); err == nil {
			t.Errorf("ParseTargets(%q) = %+v, want an error", in, got)
		}
	}
}

// FuzzParseTargets feeds arbitrary target lists to ParseTargets. It must
// never panic; every target it accepts is an http or https URL with a
// host and no trailing slash; names are unique; and the list rendered as
// "name=url,..." parses back to the same list. The seed corpus in
// testdata/fuzz/FuzzParseTargets also runs under plain go test.
func FuzzParseTargets(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseTargets(s)
		if err != nil {
			return
		}
		names := map[string]bool{}
		rendered := make([]string, len(got))
		for i, tg := range got {
			u, err := url.Parse(tg.URL)
			if err != nil || u.Scheme != "http" && u.Scheme != "https" || u.Hostname() == "" || strings.HasSuffix(tg.URL, "/") {
				t.Fatalf("%q: accepted target %+v is not an http(s) URL with a host and no trailing slash (%v)", s, tg, err)
			}
			if names[tg.Name] {
				t.Fatalf("%q: name %q accepted twice", s, tg.Name)
			}
			names[tg.Name] = true
			rendered[i] = tg.Name + "=" + tg.URL
		}
		again, err := ParseTargets(strings.Join(rendered, ","))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%q parses to %+v, whose rendering %q parses to %+v, %v", s, got, strings.Join(rendered, ","), again, err)
		}
	})
}

func TestLoadTargetsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.targets")
	content := "# fleet\nsim1=http://127.0.0.1:9464\n\n  sim2 = http://127.0.0.1:9465 \n127.0.0.1:9466\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTargetsFile(path)
	if err != nil {
		t.Fatalf("LoadTargetsFile: %v", err)
	}
	if len(got) != 3 || got[0].Name != "sim1" || got[1].Name != "sim2" || got[2].Name != "127.0.0.1:9466" {
		t.Fatalf("targets = %+v", got)
	}
}

func TestLoadTargetsFileDuplicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.targets")
	os.WriteFile(path, []byte("a=http://x:1\na=http://y:2\n"), 0o644)
	_, err := LoadTargetsFile(path)
	if err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("duplicate error should name file:line, got %v", err)
	}
}

func TestMergeTargetsFileWins(t *testing.T) {
	static := []Target{{Name: "a", URL: "http://old:1"}, {Name: "b", URL: "http://b:1"}}
	file := []Target{{Name: "a", URL: "http://new:1"}, {Name: "c", URL: "http://c:1"}}
	got := mergeTargets(static, file)
	if len(got) != 3 {
		t.Fatalf("merged %d targets, want 3: %+v", len(got), got)
	}
	if got[0].URL != "http://new:1" {
		t.Fatalf("file entry should win on name collision, got %+v", got[0])
	}
}
