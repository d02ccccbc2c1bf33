package batch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nnwc/internal/serve/registry"
)

// inst builds a fake instance with just the fields the batcher reads.
func inst(tenant string, version int, shape string) *registry.Instance {
	return &registry.Instance{Artifact: registry.Artifact{Tenant: tenant, Version: version, Shape: shape}}
}

// echoRun answers every job with its own X and records batch compositions.
type echoRun struct {
	mu      sync.Mutex
	batches [][]string // tenant refs per batch
}

func (e *echoRun) run(batch []Job) {
	refs := make([]string, len(batch))
	for i, j := range batch {
		refs[i] = j.Inst.Ref()
	}
	e.mu.Lock()
	e.batches = append(e.batches, refs)
	e.mu.Unlock()
	for _, j := range batch {
		j.Reply <- Result{Y: j.X}
	}
}

// TestCrossTenantSharedShapeGroup: two tenants with the same shape land in
// one group and their queued rows coalesce into one super-batch; a tenant
// with a different shape gets its own group.
func TestCrossTenantSharedShapeGroup(t *testing.T) {
	e := &echoRun{}
	// One worker and a huge MaxWait would stall; workers=1, no wait.
	b := New(Config{MaxBatch: 16, MaxWait: 0, Workers: 1}, e.run)
	defer b.Shutdown()

	a := inst("a", 1, "2-8-2")
	c := inst("c", 1, "2-8-2")
	d := inst("d", 1, "2-16-2")

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		target := a
		if i%2 == 1 {
			target = c
		}
		go func(target *registry.Instance, i int) {
			defer wg.Done()
			ys, err := b.Submit(ctx, target, [][]float64{{float64(i), 0}})
			if err != nil {
				t.Error(err)
				return
			}
			if ys[0][0] != float64(i) {
				t.Errorf("row %d echoed %v", i, ys[0])
			}
		}(target, i)
	}
	wg.Wait()
	if _, err := b.Submit(ctx, d, [][]float64{{9, 9}}); err != nil {
		t.Fatal(err)
	}

	if got := b.GroupCount(); got != 2 {
		t.Fatalf("group count %d, want 2 (one per shape)", got)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var crossTenant bool
	rows := 0
	for _, refs := range e.batches {
		rows += len(refs)
		seen := map[string]bool{}
		for _, r := range refs {
			seen[r] = true
		}
		if seen["a@v1"] && seen["c@v1"] {
			crossTenant = true
		}
	}
	if rows != 9 {
		t.Fatalf("answered %d rows, want 9", rows)
	}
	if len(e.batches) >= 9 {
		t.Fatalf("%d batches for 9 rows — no coalescing", len(e.batches))
	}
	if !crossTenant {
		t.Fatalf("no batch mixed tenants a and c: %v", e.batches)
	}
}

// TestGatherHonorsMaxBatch: queued backlog drains as capped batches.
func TestGatherHonorsMaxBatch(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	release := make(chan struct{})
	b := New(Config{MaxBatch: 4, MaxWait: 50 * time.Millisecond, Workers: 1, QueueDepth: 64},
		func(batch []Job) {
			<-release
			mu.Lock()
			sizes = append(sizes, len(batch))
			mu.Unlock()
			for _, j := range batch {
				j.Reply <- Result{Y: j.X}
			}
		})
	defer b.Shutdown()

	a := inst("a", 1, "s")
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Submit(ctx, a, [][]float64{{float64(i)}}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Let all 9 rows queue behind the blocked worker, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sizes {
		if s > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch=4 (%v)", s, sizes)
		}
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 9 {
		t.Fatalf("total rows %d, want 9", total)
	}
}

// TestShedOnFullQueue: a full group queue refuses rows with ErrOverloaded
// instead of blocking the submitter.
func TestShedOnFullQueue(t *testing.T) {
	block := make(chan struct{})
	b := New(Config{MaxBatch: 1, Workers: 1, QueueDepth: 2}, func(batch []Job) {
		<-block
		for _, j := range batch {
			j.Reply <- Result{Y: j.X}
		}
	})
	defer func() { close(block); b.Shutdown() }()

	a := inst("a", 1, "s")
	ctx := context.Background()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := b.Submit(ctx, a, [][]float64{{1}})
			done <- err
		}()
	}
	// With one blocked worker and depth 2, at most 1 (in worker) + 2
	// (queued) submissions can be in flight; the rest must shed promptly.
	deadline := time.After(500 * time.Millisecond)
	shed := 0
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if errors.Is(err, ErrOverloaded) {
				shed++
			} else if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			if shed >= 5 {
				return // the non-shed submissions are still blocked on the worker; fine
			}
			t.Fatalf("only %d rows shed before deadline", shed)
		}
	}
	if shed < 5 {
		t.Fatalf("shed %d rows, want >= 5", shed)
	}
	if b.Sheds() == 0 {
		t.Fatal("shed counter not incremented")
	}
}

// TestShutdownDrainsQueue: jobs queued at shutdown are answered with
// ErrDraining, and later submits refuse immediately.
func TestShutdownDrainsQueue(t *testing.T) {
	b := New(Config{MaxBatch: 4, Workers: 1}, func(batch []Job) {
		for _, j := range batch {
			j.Reply <- Result{Y: j.X}
		}
	})
	a := inst("a", 1, "s")
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	b.Shutdown()
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown = %v, want ErrDraining", err)
	}
}
