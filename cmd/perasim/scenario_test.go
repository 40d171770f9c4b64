package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// The test binary doubles as perasim: with runMainEnv set it runs main
// on its own arguments, so each case is one real process with a real
// exit status.
const runMainEnv = "PERASIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runPerasim(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), exit
}

// TestScenarioFlagConflicts: -observe and -slo together, or either with
// an explicit -uc naming another use case, exit 2 with one line naming
// both flags and run nothing.
func TestScenarioFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-observe", "-slo"}, "perasim: -observe conflicts with -slo\n"},
		{[]string{"-slo", "-observe", "-uc", "observe"}, "perasim: -observe conflicts with -slo\n"},
		{[]string{"-uc", "1", "-observe"}, "perasim: -observe conflicts with -uc 1\n"},
		{[]string{"-observe", "-uc", "all"}, "perasim: -observe conflicts with -uc all\n"},
		{[]string{"-uc", "observe", "-slo"}, "perasim: -slo conflicts with -uc observe\n"},
	} {
		stdout, stderr, exit := runPerasim(t, tc.args...)
		if exit != 2 || stderr != tc.want || stdout != "" {
			t.Errorf("perasim %q: exit %d, stderr %q, stdout %q; want exit 2, stderr %q, no stdout",
				tc.args, exit, stderr, stdout, tc.want)
		}
	}
}

// TestScenarioShorthand: -observe alone, and -observe with -uc observe,
// run the observatory scenario.
func TestScenarioShorthand(t *testing.T) {
	for _, args := range [][]string{
		{"-observe", "-observe-hops", "2", "-observe-packets", "4"},
		{"-uc", "observe", "-observe", "-observe-hops", "2", "-observe-packets", "4"},
	} {
		stdout, stderr, exit := runPerasim(t, args...)
		if exit != 0 || !bytes.Contains([]byte(stdout), []byte("trace ")) {
			t.Errorf("perasim %q: exit %d, stderr %q, stdout %q", args, exit, stderr, stdout)
		}
	}
}
