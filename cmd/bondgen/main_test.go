package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// BONDGEN_RUN_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BONDGEN_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// run executes a command and returns its output and exit code.
func run(t *testing.T, cmd *exec.Cmd) (stdout, stderr string, exit int) {
	t.Helper()
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

func bondgen(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BONDGEN_RUN_MAIN=1")
	return run(t, cmd)
}

// TestOutputAnswersBondquery drives the two commands together: what
// bondgen writes answers a bondquery self-query, an existing -out is
// refused, and bondquery refuses a snapshot file of an earlier release
// with an error naming the import that release offered.
func TestOutputAnswersBondquery(t *testing.T) {
	dir := t.TempDir()
	bondquery := filepath.Join(dir, "bondquery")
	// go test puts its own toolchain first on the PATH.
	if _, stderr, exit := run(t, exec.Command("go", "build", "-o", bondquery, "bond/cmd/bondquery")); exit != 0 {
		t.Fatalf("build bondquery: %s", stderr)
	}

	gen := filepath.Join(dir, "gen.bond")
	if out, stderr, exit := bondgen(t, "-kind", "corel", "-n", "300", "-dims", "8", "-segsize", "100", "-out", gen); exit != 0 {
		t.Fatalf("bondgen: exit %d\nstdout: %s\nstderr: %s", exit, out, stderr)
	}
	out, stderr, exit := run(t, exec.Command(bondquery, "-store", gen, "-id", "17", "-k", "1"))
	if exit != 0 || !strings.Contains(out, "in 4 segments") || !strings.Contains(out, "1. id=17 ") {
		t.Fatalf("self-query 17 on %s: exit %d\nstdout: %s\nstderr: %s", gen, exit, out, stderr)
	}

	if _, stderr, exit := bondgen(t, "-kind", "uniform", "-n", "10", "-dims", "4", "-out", gen); exit == 0 || !strings.Contains(stderr, "exists") {
		t.Fatalf("bondgen over an existing -out: exit %d, stderr %q", exit, stderr)
	}
	snapshot := filepath.Join("..", "..", "testdata", "legacy", "seg-v2.bond")
	_, stderr, exit = run(t, exec.Command(bondquery, "-store", snapshot))
	if exit == 0 || !strings.Contains(stderr, "bondgen -import") || !strings.Contains(stderr, "earlier release") {
		t.Fatalf("bondquery on a snapshot file: exit %d, stderr %q", exit, stderr)
	}
}
