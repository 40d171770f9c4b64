package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// The test binary doubles as policyc: with runMainEnv set it runs main
// on its own arguments, so each golden case is one real process with a
// real exit status.
const runMainEnv = "POLICYC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins stdout and the exit status of the Table 1 compiles and
// the README's §4.2 bank analysis, parallel (vulnerable) and sequenced.
// AP2 names its scanner concretely, so it binds only to a path that has
// one.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		exit   int
	}{
		{"ap1", []string{"-ap", "ap1"}, 0},
		{"ap2", []string{"-ap", "ap2"}, 1},
		{"ap2_scanner", []string{"-ap", "ap2", "-path", "scanner:ra"}, 0},
		{"ap3", []string{"-ap", "ap3"}, 0},
		{"bank_parallel", []string{"-copland", "*bank: @ks [av us bmon] +~- @us [bmon us exts]"}, 1},
		{"bank_sequenced", []string{"-copland", "*bank: @ks [av us bmon] -<- @us [bmon us exts]"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			got, err := cmd.Output()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.exit {
				t.Errorf("exit status %d, want %d", exit, tc.exit)
			}
			want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden\ngot:\n%swant:\n%s", tc.golden, got, want)
			}
		})
	}
}
