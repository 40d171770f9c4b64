package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagsGolden pins every flag name and default value, so the shared
// plane-flag helper can neither add an option to this command nor drop
// one. testdata/flags.golden lists name=default, sorted by name. The
// testing package's flags and TestGolden's -update belong to the test
// binary, not to perasim.
func TestFlagsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") && f.Name != "update" {
			got.WriteString(f.Name + "=" + f.DefValue + "\n")
		}
	})
	if got.String() != string(want) {
		t.Fatalf("flags differ from testdata/flags.golden\ngot:\n%swant:\n%s", got.String(), want)
	}
}
