package jobs

// Multi-process distribution tests: the test binary re-executes itself as
// worker processes (keyed on the NNWC_DIST_WORKER environment variable),
// so the parity and fault tests exercise real process boundaries — HTTP
// transport, artifact fetch over the wire, SIGKILL mid-lease — not
// goroutine stand-ins.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/surface"
	"nnwc/internal/workload"
)

func TestMain(m *testing.M) {
	if url := os.Getenv("NNWC_DIST_WORKER"); url != "" {
		runTestWorker(url)
		return
	}
	os.Exit(m.Run())
}

// runTestWorker is the child-process entry point: a real jobs worker plus
// a "sleep" toy runner the fault tests use for timing-robust kills.
func runTestWorker(url string) {
	runners := Runners()
	runners["sleep"] = sleepRunner
	sched.SetWorkers(1) // run each lease's tasks one at a time
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: url,
		CacheDir:    os.Getenv("NNWC_DIST_CACHE"),
		Runners:     runners,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		WaitForJob:  30 * time.Second,
		GiveUp:      30 * time.Second,
	})
	if err == nil {
		err = w.Run(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// sleepRunner completes quickly — unless this worker was started with
// NNWC_DIST_HANG and the index is past the configured threshold, in which
// case it wedges, simulating a worker that stops making progress while
// holding a lease.
func sleepRunner(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	var cfg struct {
		HangFrom int `json:"hang_from"`
	}
	if err := json.Unmarshal(spec.Config, &cfg); err != nil {
		return nil, err
	}
	if os.Getenv("NNWC_DIST_HANG") != "" && index >= cfg.HangFrom {
		select {} // wedge until SIGKILL
	}
	time.Sleep(5 * time.Millisecond)
	return json.Marshal(map[string]int{"i": index})
}

// spawnWorker starts this test binary as a worker child process. The
// returned process is reaped (and killed if still alive) at test cleanup.
func spawnWorker(t *testing.T, url string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"NNWC_DIST_WORKER="+url,
		"NNWC_DIST_CACHE="+t.TempDir(),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// waitProgress polls the coordinator's /dist/progress endpoint until at
// least want tasks have completed.
func waitProgress(t *testing.T, addr string, want int) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/dist/progress")
		if err == nil {
			var p dist.Progress
			err = json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
			if err == nil && p.Completed >= want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never reached %d completed tasks", want)
}

// The seed-reference constants from internal/core/seedref_test.go: the
// pinned Table-2 numbers for CrossValidate(syntheticDataset(120,42),
// fastConfig(), 4, 7). The distributed plane must land on the same bits.
const (
	seedRefAvg0    = 0.0027368722195466755
	seedRefAvg1    = 0.0022901977227838028
	seedRefOverall = 0.0025135349711652389
)

// writeParityCSV materializes the seed-reference synthetic dataset
// (core_test.go's syntheticDataset(120, 42)) as a CSV artifact. WriteCSV
// prints shortest-round-trip decimals, so the bytes reload exactly.
func writeParityCSV(t *testing.T) string {
	t.Helper()
	src := rng.New(42)
	ds := workload.NewDataset([]string{"a", "b"}, []string{"u", "v"})
	for i := 0; i < 120; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		ds.MustAppend(workload.Sample{
			X: []float64{a, b},
			Y: []float64{10 + 3*a*a - b, 5 + math.Sin(a) + 2*b},
		})
	}
	path := filepath.Join(t.TempDir(), "parity.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// serialReference computes the in-process cross-validation the distributed
// run must reproduce, from the same CSV bytes the workers fetch.
func serialReference(t *testing.T, csvPath string) *core.CVResult {
	t.Helper()
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := workload.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ModelConfig("10", 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := core.CrossValidate(ds, cfg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

// requireBitIdentical fails unless two CV results agree to the last bit —
// the distribution invariant is bytes, not tolerance.
func requireBitIdentical(t *testing.T, serial, distributed *core.CVResult) {
	t.Helper()
	if len(distributed.Trials) != len(serial.Trials) {
		t.Fatalf("trial count %d != %d", len(distributed.Trials), len(serial.Trials))
	}
	for i := range serial.Trials {
		for j := range serial.Trials[i].Errors {
			a, b := serial.Trials[i].Errors[j], distributed.Trials[i].Errors[j]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d indicator %d: %.17g != %.17g", i, j, b, a)
			}
		}
	}
	for j := range serial.Averages {
		a, b := serial.Averages[j], distributed.Averages[j]
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("avg[%d]: %.17g != %.17g", j, b, a)
		}
	}
	if math.Float64bits(serial.OverallError()) != math.Float64bits(distributed.OverallError()) {
		t.Fatalf("overall: %.17g != %.17g", distributed.OverallError(), serial.OverallError())
	}
}

// TestDistCrossvalParity is the acceptance pin: a coordinator and two
// worker processes reproduce the serial seed-reference cross-validation
// byte-for-byte, and both agree with the pinned constants to 1e-9.
func TestDistCrossvalParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process parity test")
	}
	csvPath := writeParityCSV(t)
	serial := serialReference(t, csvPath)

	opt := Options{
		Addr:      "127.0.0.1:0",
		JobID:     "parity-test",
		LeaseSize: 1,
		OnStart: func(addr string) {
			spawnWorker(t, addr)
			spawnWorker(t, addr)
		},
	}
	cv, stats, err := CoordinateCrossval(context.Background(), opt, csvPath, 4, "10", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, serial, cv)
	for j, want := range []float64{seedRefAvg0, seedRefAvg1} {
		if math.Abs(cv.Averages[j]-want) > 1e-9 {
			t.Fatalf("avg[%d] = %.17g, seed reference %.17g", j, cv.Averages[j], want)
		}
	}
	if got := cv.OverallError(); math.Abs(got-seedRefOverall) > 1e-9 {
		t.Fatalf("overall = %.17g, seed reference %.17g", got, seedRefOverall)
	}
	if stats.Leases == 0 {
		t.Fatal("no leases recorded")
	}
}

// TestDistKindParity: for every job kind, a coordinator and two worker
// processes reproduce the in-process run bit for bit — the parity that
// follows from both executors opening the same kind, workers running its
// Run and the coordinator reducing with its Reduce.
func TestDistKindParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process parity test")
	}
	csvPath := writeParityCSV(t)
	const modelPath = "../../core/testdata/golden_model.json"
	sl := surface.Slice{
		Fixed:   []float64{0, 0},
		XIndex:  0,
		YIndex:  1,
		XValues: surface.Linspace(-2, 2, 5),
		YValues: surface.Linspace(-2, 2, 7),
		Output:  1,
	}
	// Each case runs its kind on ex and returns the result's values, whose
	// %v rendering (shortest round-trip floats) differs on any changed bit.
	cases := []struct {
		name string
		run  func(ex Executor) (any, error)
	}{
		{KindCrossval, func(ex Executor) (any, error) {
			j, err := CrossvalJob(csvPath, CrossvalConfig{K: 4, Hidden: "6", Epochs: 200}, 7)
			if err != nil {
				return nil, err
			}
			cv, _, err := Execute(context.Background(), ex, j)
			if err != nil {
				return nil, err
			}
			errs := make([][]float64, len(cv.Trials))
			for i, tr := range cv.Trials {
				errs[i] = tr.Errors
			}
			return []any{cv.TargetNames, errs, cv.Averages}, nil
		}},
		{KindCompare, func(ex Executor) (any, error) {
			j, err := CompareJob(csvPath, CompareConfig{K: 4, Hidden: "6", Epochs: 200}, 7)
			if err != nil {
				return nil, err
			}
			means, _, err := Execute(context.Background(), ex, j)
			return means, err
		}},
		{KindSurface, func(ex Executor) (any, error) {
			j, err := SurfaceJob(modelPath, sl)
			if err != nil {
				return nil, err
			}
			g, _, err := Execute(context.Background(), ex, j)
			if err != nil {
				return nil, err
			}
			return g.Z, nil
		}},
		{KindImportance, func(ex Executor) (any, error) {
			j, err := ImportanceJob(modelPath, csvPath, ImportanceConfig{Repeats: 3}, 9)
			if err != nil {
				return nil, err
			}
			im, _, err := Execute(context.Background(), ex, j)
			return im, err
		}},
		{KindSelect, func(ex Executor) (any, error) {
			j, err := SelectJob(csvPath, SelectConfig{K: 3, Epochs: 100, Candidates: [][]int{{3}, {6}, {4, 2}}}, 13)
			if err != nil {
				return nil, err
			}
			sel, _, err := Execute(context.Background(), ex, j)
			return sel, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			local, err := c.run(Local{})
			if err != nil {
				t.Fatal(err)
			}
			distributed, err := c.run(Options{
				Addr:      "127.0.0.1:0",
				JobID:     c.name + "-parity-test",
				LeaseSize: 1,
				OnStart: func(addr string) {
					spawnWorker(t, addr)
					spawnWorker(t, addr)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if l, d := fmt.Sprintf("%v", local), fmt.Sprintf("%v", distributed); l != d {
				t.Fatalf("distributed result differs from local:\nlocal       %s\ndistributed %s", l, d)
			}
		})
	}
}

// TestDistCrossvalKillAndRestartWorker kills a worker process mid-run and
// replaces it; the reassigned tasks must still land on the serial bits.
func TestDistCrossvalKillAndRestartWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fault test")
	}
	csvPath := writeParityCSV(t)
	serial := serialReference(t, csvPath)

	opt := Options{
		Addr:      "127.0.0.1:0",
		JobID:     "kill-restart-test",
		LeaseSize: 1,
		LeaseTTL:  time.Second,
		StateFile: filepath.Join(t.TempDir(), dist.StateFileName),
		OnStart: func(addr string) {
			victim := spawnWorker(t, addr)
			go func() {
				waitProgress(t, addr, 1)
				victim.Process.Kill()
				victim.Wait()
				spawnWorker(t, addr)
			}()
		},
	}
	cv, _, err := CoordinateCrossval(context.Background(), opt, csvPath, 4, "10", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, serial, cv)
}

// TestDistWorkerKilledMidLease pins the reassignment machinery itself:
// a wedged worker is SIGKILLed while holding a lease, the lease expires,
// and a healthy replacement finishes the job.
func TestDistWorkerKilledMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fault test")
	}
	const n = 6
	cfg, err := json.Marshal(map[string]int{"hang_from": 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Addr: "127.0.0.1:0",
		Spec: dist.Spec{
			JobID:    "kill-test",
			Kind:     "sleep",
			Seed:     1,
			NumTasks: n,
			Config:   cfg,
		},
		LeaseSize:    2,
		LeaseTTL:     300 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// The wedging worker completes tasks 0 and 1, then hangs on task 2
	// while holding its lease. Kill it once it holds that second lease:
	// killed between posting result 1 and leasing [2,4), it would leave
	// nothing to reassign.
	victim := spawnWorker(t, c.Addr(), "NNWC_DIST_HANG=1")
	waitProgress(t, c.Addr(), 2)
	for deadline := time.Now().Add(60 * time.Second); c.CoordStats().Leases < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the wedging worker never leased its second range")
		}
	}
	victim.Process.Kill()
	victim.Wait()

	spawnWorker(t, c.Addr())
	payloads, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != n {
		t.Fatalf("got %d payloads, want %d", len(payloads), n)
	}
	for i, p := range payloads {
		var got struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal(p, &got); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if got.I != i {
			t.Fatalf("payload %d carries index %d", i, got.I)
		}
	}
	if st := c.CoordStats(); st.Reassigned == 0 {
		t.Fatal("no tasks were reassigned after the kill")
	}
}
