package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nnwc/internal/core"
)

// TestFleetRaceNoTornModels is the fleet's atomicity pin, written to run
// under -race: while canary deploys, promotions, rollbacks, and hot reloads
// churn a tenant continuously, every concurrent coalesced prediction must
// be bit-identical to what ONE of the registered models computes for that
// input. A torn or half-promoted model — a batch that mixes weights from
// two versions, or a request that observes a partially-published instance —
// would produce a vector matching none of them.
func TestFleetRaceNoTornModels(t *testing.T) {
	dir := t.TempDir()
	models := []*core.NNModel{
		trainTestModel(t, 30),
		trainTestModel(t, 31),
		trainTestModel(t, 32),
	}
	paths := make([]string, len(models))
	for i, m := range models {
		paths[i] = filepath.Join(dir, fmt.Sprintf("artifact-%d.json", i))
		if err := m.SaveFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	// livePath is the tenant's configured (reload) target; churners
	// overwrite it and fire Reload. SaveFile is atomic (temp + rename), so
	// a concurrent reload hashes either the old bytes or the new — never a
	// torn file.
	livePath := filepath.Join(dir, "web.json")
	if err := models[0].SaveFile(livePath); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Models:  map[string]string{"web": livePath},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// The full space of legal answers: each registered model's batched
	// prediction for the probe input. Computed through PredictAll — the
	// same kernel path runBatch takes — so equality is exact, not
	// approximate.
	x := []float64{1.25, -0.75}
	expected := make([][]float64, len(models))
	for i, m := range models {
		expected[i] = m.PredictAll([][]float64{x})[0]
	}
	matches := func(y []float64) bool {
		for _, want := range expected {
			if len(y) != len(want) {
				continue
			}
			same := true
			for j := range want {
				if y[j] != want[j] { //nolint — bit-equality IS the assertion
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
		return false
	}

	var (
		failMu sync.Mutex
		fails  []string
	)
	record := func(format string, args ...any) {
		failMu.Lock()
		if len(fails) < 8 {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
		failMu.Unlock()
	}

	stop := make(chan struct{})
	var wg, churnWg sync.WaitGroup

	// Traffic: four workers hammer the live model through the coalescing
	// path. Responses from pinned versions would also be legal, but live
	// routing is what promotion races against.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				y, err := s.PredictRef(ctx, "web", x)
				if err != nil {
					record("predict: %v", err)
					return
				}
				if !matches(y) {
					record("prediction %v matches no registered model", y)
					return
				}
			}
		}()
	}

	// Observations: feed prediction-vs-actual pairs concurrently so the
	// rolling windows (and shadow inference inside Observe) churn too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are legal here (e.g. a rollback race); the invariant
			// under test is the traffic invariant above.
			_, _ = s.ctl.Observe("web", x, expected[0])
		}
	}()

	// Churn: two goroutines deploy canaries, promote, roll back, and hot
	// reload, concurrently with each other and with the traffic. Individual
	// operations may fail (promote racing a rollback that already dropped
	// the shadow) — the deployment API is allowed to say no, never to tear.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		churnWg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer churnWg.Done()
			for i := 0; i < 50; i++ {
				switch (i + c) % 4 {
				case 0:
					if _, err := s.ctl.Deploy("web", paths[1], true); err == nil {
						_, _ = s.ctl.Promote("web")
					}
				case 1:
					if _, err := s.ctl.Deploy("web", paths[2], true); err == nil {
						_, _ = s.ctl.Rollback("web")
					}
				case 2:
					if err := models[(i+c)%3].SaveFile(livePath); err != nil {
						record("rewriting live artifact: %v", err)
						return
					}
					_ = s.Reload()
				case 3:
					_, _ = s.ctl.Rollback("web")
				}
			}
		}(c)
	}

	// Traffic runs for the full duration of the churn, then stops.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	churnWg.Wait()
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet race test wedged")
	}

	if len(fails) > 0 {
		t.Fatalf("torn/invalid responses under churn: %v", fails)
	}
	if s.ctl.Deployment("web").Live() == nil {
		t.Fatal("tenant lost its live model during churn")
	}
}
