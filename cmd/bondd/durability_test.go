package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"
)

func newReader(b []byte) io.Reader { return bytes.NewReader(b) }

// The end-to-end durability test: a real bondd process (exec'd child) is
// SIGKILLed mid-ingest and restarted on the same data directory, and
// every write it acknowledged with a 2xx before dying must be readable
// afterwards — the -fsync=always contract, demonstrated at the process
// boundary rather than through in-process fault injection. The kill
// lands at a random point in the ingest stream, with an aggressive
// maintenance interval and a tiny -wal-max-bytes so some runs die
// mid-checkpoint too.

// buildBondd compiles the daemon once per test binary.
func buildBondd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bondd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Skipf("cannot build bondd (no toolchain?): %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral port and releases it for the child.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startBondd launches the daemon and waits until /healthz answers.
func startBondd(t *testing.T, bin, addr, dataDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data", dataDir,
		"-fsync", "always",
		"-segment-size", "32",
		// Aggressive checkpointing so some kills land mid-checkpoint;
		// compaction and re-clustering off so ids stay stable for
		// readback-by-id (both drop tombstoned slots and remap ids).
		"-maintenance-interval", "150ms",
		"-wal-max-bytes", "1",
		"-compact-ratio", "-1",
		"-recluster-spread", "-1",
		"-quiet",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("bondd did not become healthy")
	return nil
}

func postJSON(addr, path string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post("http://"+addr+path, "application/json", newReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func TestSIGKILLLosesNoAcknowledgedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("exec'd-child durability test skipped in -short mode")
	}
	bin := buildBondd(t)
	dataDir := t.TempDir()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))

	addr := freeAddr(t)
	child := startBondd(t, bin, addr, dataDir)
	defer func() {
		if child.Process != nil {
			child.Process.Kill()
			child.Wait()
		}
	}()

	req, _ := http.NewRequest(http.MethodPut, "http://"+addr+"/collections/c", newReader([]byte(`{"dims":6}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Ingest one vector at a time, recording (id, vector) for every 2xx.
	// The child is killed after a random number of acknowledgments —
	// possibly with a request in flight, which is then legitimately lost.
	type acked struct {
		id  int
		vec []float64
	}
	var log []acked
	deleted := map[int]bool{} // ids whose tombstone got a 204
	killAfter := 40 + rng.Intn(120)
	for i := 0; ; i++ {
		v := make([]float64, 6)
		for d := range v {
			v[d] = rng.Float64()
		}
		var ir struct {
			FirstID int `json:"first_id"`
		}
		code, err := postJSON(addr, "/collections/c/vectors", map[string]any{"vector": v}, &ir)
		if err != nil || code != http.StatusOK {
			t.Fatalf("ingest %d failed before the kill: code %d err %v", i, code, err)
		}
		log = append(log, acked{id: ir.FirstID, vec: v})
		if len(log) >= killAfter {
			break
		}
		if i%10 == 3 { // sprinkle acknowledged deletes through the stream
			id := log[rng.Intn(len(log))].id
			url := fmt.Sprintf("http://%s/collections/c/vectors/%d", addr, id)
			dreq, _ := http.NewRequest(http.MethodDelete, url, nil)
			dresp, derr := http.DefaultClient.Do(dreq)
			if derr == nil {
				if dresp.StatusCode == http.StatusNoContent {
					deleted[id] = true
				}
				dresp.Body.Close()
			}
		}
	}

	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	// Restart on the same directory; recovery replays the WAL.
	addr2 := freeAddr(t)
	child2 := startBondd(t, bin, addr2, dataDir)
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()

	// Every acknowledged ingest AND delete must have survived: the slot
	// count covers the ingests, the live count the tombstones (ids are
	// stable because compaction is off), and the per-id readback below
	// the bytes. Tombstoned vectors stay readable by id (tombstones hide
	// them from search, not from positional access).
	resp2, err := http.Get("http://" + addr2 + "/collections/c")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Len  int `json:"len"`
		Live int `json:"live"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if st.Len < len(log) {
		t.Fatalf("restart lost acknowledged writes: len %d < %d acked", st.Len, len(log))
	}
	if want := st.Len - len(deleted); st.Live != want {
		t.Fatalf("restart lost acknowledged deletes: live %d, want %d (%d tombstones)",
			st.Live, want, len(deleted))
	}
	for _, a := range log {
		resp, err := http.Get(fmt.Sprintf("http://%s/collections/c/vectors/%d", addr2, a.id))
		if err != nil {
			t.Fatal(err)
		}
		var vr struct {
			Vector []float64 `json:"vector"`
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("acked id %d unreadable after SIGKILL restart: status %d", a.id, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !reflect.DeepEqual(vr.Vector, a.vec) {
			t.Fatalf("acked id %d corrupted after SIGKILL restart", a.id)
		}
	}
}
