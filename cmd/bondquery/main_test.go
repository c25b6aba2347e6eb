package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bond"
	"bond/internal/dataset"
)

// TestMain lets the test binary stand in for the command: re-executed with
// BONDQUERY_RUN_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BONDQUERY_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runBondquery(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BONDQUERY_RUN_MAIN=1")
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

// TestStrategyFlag pins the -strategy surface: a served strategy answers
// the self-query, and "mil" — the reference engine, reachable only through
// bondbench's ablation — exits non-zero naming the five valid strategies.
func TestStrategyFlag(t *testing.T) {
	store := filepath.Join(t.TempDir(), "c.bond")
	col, err := bond.OpenDurable(store, bond.DurableOptions{Dims: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.AddBatchDurable(dataset.CorelLike(60, 8, 5)); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	out, stderr, exit := runBondquery(t, "-store", store, "-id", "7", "-k", "1", "-strategy", "vafile")
	if exit != 0 || !strings.Contains(out, "id=7 ") {
		t.Fatalf("vafile self-query: exit %d\nstdout: %s\nstderr: %s", exit, out, stderr)
	}
	_, stderr, exit = runBondquery(t, "-store", store, "-id", "7", "-strategy", "mil")
	if exit == 0 {
		t.Fatal("-strategy mil exited 0")
	}
	if !strings.Contains(stderr, "auto, bond, compressed, vafile, or exact") {
		t.Fatalf("stderr does not list the valid strategies: %q", stderr)
	}
}
