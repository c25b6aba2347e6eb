package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// BONDBENCH_RUN_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BONDBENCH_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runBondbench(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BONDBENCH_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), exit
}

// TestFlags pins the command's surface: a named experiment at a tiny scale
// renders its table, and -qps — the retired throughput suite — is not a
// flag.
func TestFlags(t *testing.T) {
	out, stderr, exit := runBondbench(t, "-exp", "usefulness", "-n", "300", "-dims", "16", "-queries", "3")
	if exit != 0 || !strings.Contains(out, "Sec. 9 usefulness") {
		t.Fatalf("-exp usefulness: exit %d\nstdout: %s\nstderr: %s", exit, out, stderr)
	}
	_, stderr, exit = runBondbench(t, "-qps")
	if exit != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Fatalf("-qps: exit %d, stderr %q; want exit 2 naming an undefined flag", exit, stderr)
	}
}
