package jobs

// Multi-process cluster-trace tests: the merged trace a coordinated run
// writes must canonicalize to the same bytes no matter how many worker
// processes served it — and no matter whether a worker was SIGKILLed and
// its lease reassigned along the way.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nnwc/internal/dist"
	"nnwc/internal/obs/obstest"
)

// runTraceCrossval coordinates one cross-validation job with `workers`
// worker processes and returns the canonicalized merged cluster trace.
func runTraceCrossval(t *testing.T, csvPath string, workers int) []byte {
	t.Helper()
	tracePath := filepath.Join(t.TempDir(), dist.ClusterTraceFileName)
	opt := Options{
		Addr:             "127.0.0.1:0",
		JobID:            "trace-test",
		LeaseSize:        1,
		ClusterTraceFile: tracePath,
		OnStart: func(addr string) {
			for i := 0; i < workers; i++ {
				spawnWorker(t, addr)
			}
		},
	}
	if _, _, err := CoordinateCrossval(context.Background(), opt, csvPath, 4, "10", 150, 7); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("cluster trace not written: %v", err)
	}
	canon, err := obstest.CanonicalizeJSONL(raw)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestDistClusterTraceByteIdentical pins the merge invariant end to end:
// 1, 2, and 8 worker processes produce byte-identical canonical traces.
func TestDistClusterTraceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process trace test")
	}
	csvPath := writeParityCSV(t)
	ref := runTraceCrossval(t, csvPath, 1)
	// The runner's fold summaries crossed the wire into the merged trace.
	if n := strings.Count(string(ref), `"ev":"fold"`); n != 4 {
		t.Fatalf("canonical trace has %d fold events, want 4:\n%s", n, ref)
	}
	for _, workers := range []int{2, 8} {
		if got := runTraceCrossval(t, csvPath, workers); !bytes.Equal(got, ref) {
			t.Fatalf("%d-worker canonical trace differs from 1-worker reference:\ngot:\n%s\nwant:\n%s", workers, got, ref)
		}
	}
}

// newSleepCoordinator starts a coordinator for the toy sleep job with a
// cluster trace attached.
func newSleepCoordinator(t *testing.T, tracePath string, n int) *dist.Coordinator {
	t.Helper()
	cfg, err := json.Marshal(map[string]int{"hang_from": 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Addr: "127.0.0.1:0",
		Spec: dist.Spec{
			JobID:    "trace-kill-test",
			Kind:     "sleep",
			Seed:     1,
			NumTasks: n,
			Config:   cfg,
		},
		LeaseSize:        2,
		LeaseTTL:         300 * time.Millisecond,
		PollInterval:     20 * time.Millisecond,
		ClusterTraceFile: tracePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDistClusterTraceSurvivesKill SIGKILLs a wedged worker mid-lease and
// lets a healthy replacement finish: the canonical trace must match a
// clean single-worker run bit for bit, with the reassignment recorded
// only in the volatile ops narrative.
func TestDistClusterTraceSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process trace fault test")
	}
	const n = 6

	refPath := filepath.Join(t.TempDir(), dist.ClusterTraceFileName)
	ref := newSleepCoordinator(t, refPath, n)
	spawnWorker(t, ref.Addr())
	if _, err := ref.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	refRaw, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := obstest.CanonicalizeJSONL(refRaw)
	if err != nil {
		t.Fatal(err)
	}

	killPath := filepath.Join(t.TempDir(), dist.ClusterTraceFileName)
	c := newSleepCoordinator(t, killPath, n)
	victim := spawnWorker(t, c.Addr(), "NNWC_DIST_HANG=1")
	waitProgress(t, c.Addr(), 2)
	// Kill only once the victim holds its second lease (tasks 2–3, where
	// it hangs): a kill between its first result and that grant would
	// leave nothing to reassign.
	for deadline := time.Now().Add(60 * time.Second); c.CoordStats().Leases < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the victim never took its second lease")
		}
	}
	victim.Process.Kill()
	victim.Wait()
	spawnWorker(t, c.Addr())
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := c.CoordStats(); st.Reassigned == 0 {
		t.Fatal("no tasks were reassigned after the kill")
	}
	raw, err := os.ReadFile(killPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"ev":"dist_reassign"`) {
		t.Fatalf("raw trace records no reassignment:\n%s", raw)
	}
	got, err := obstest.CanonicalizeJSONL(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical trace after SIGKILL differs from clean run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
