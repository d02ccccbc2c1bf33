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

// echoRun answers every job with its own rows and records batch
// compositions.
type echoRun struct {
	mu      sync.Mutex
	batches [][]string // tenant ref of every row, per batch
}

func (e *echoRun) run(batch []Job) {
	var refs []string
	for _, j := range batch {
		for range j.Xs {
			refs = append(refs, j.Inst.Ref())
		}
	}
	e.mu.Lock()
	e.batches = append(e.batches, refs)
	e.mu.Unlock()
	echo(batch)
}

// echo answers every job with its own rows.
func echo(batch []Job) {
	for _, j := range batch {
		j.Reply <- Result{Ys: j.Xs}
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

// TestGatherHonorsMaxBatch: queued backlog drains as batches of at most
// MaxBatch rows, whether the rows arrive as one-row requests, as requests
// that do not fit the batch being gathered, or as one request larger than
// MaxBatch; every request gets its own rows back, in order.
func TestGatherHonorsMaxBatch(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	release := make(chan struct{})
	b := New(Config{MaxBatch: 4, MaxWait: 50 * time.Millisecond, Workers: 1, QueueDepth: 64},
		func(batch []Job) {
			<-release
			rows := 0
			for _, j := range batch {
				rows += len(j.Xs)
			}
			mu.Lock()
			sizes = append(sizes, rows)
			mu.Unlock()
			echo(batch)
		})
	defer b.Shutdown()

	a := inst("a", 1, "s")
	ctx := context.Background()
	// Nine one-row requests, two three-row requests and one nine-row one.
	var reqs [][][]float64
	next := 0.0
	for _, n := range []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 9} {
		var xs [][]float64
		for k := 0; k < n; k++ {
			xs = append(xs, []float64{next})
			next++
		}
		reqs = append(reqs, xs)
	}
	var wg sync.WaitGroup
	for _, xs := range reqs {
		wg.Add(1)
		go func(xs [][]float64) {
			defer wg.Done()
			ys, err := b.Submit(ctx, a, xs)
			if err != nil {
				t.Error(err)
				return
			}
			if len(ys) != len(xs) {
				t.Errorf("%d rows answered %d", len(xs), len(ys))
				return
			}
			for k := range xs {
				if ys[k][0] != xs[k][0] {
					t.Errorf("row %d of %v answered %v", k, xs, ys)
					return
				}
			}
		}(xs)
	}
	// Let every request queue behind the blocked worker, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, s := range sizes {
		if s > 4 {
			t.Fatalf("batch of %d rows exceeds MaxBatch=4 (%v)", s, sizes)
		}
		total += s
	}
	if total != int(next) {
		t.Fatalf("total rows %d, want %d", total, int(next))
	}
}

// TestShedOnFullQueue: a full group queue refuses rows with ErrOverloaded
// instead of blocking the submitter.
func TestShedOnFullQueue(t *testing.T) {
	block := make(chan struct{})
	b := New(Config{MaxBatch: 1, Workers: 1, QueueDepth: 2}, func(batch []Job) {
		<-block
		for _, j := range batch {
			j.Reply <- Result{Ys: j.Xs}
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

// TestQueueDepthCountsRows: QueueDepth bounds queued rows, not requests,
// and a request that would overfill the queue sheds whole.
func TestQueueDepthCountsRows(t *testing.T) {
	running := make(chan struct{}, 8) // one per batch
	block := make(chan struct{})
	b := New(Config{MaxBatch: 2, Workers: 1, QueueDepth: 4}, func(batch []Job) {
		running <- struct{}{}
		<-block
		echo(batch)
	})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	defer func() { unblock(); b.Shutdown() }()

	a := inst("a", 1, "s")
	rows := func(n int) [][]float64 { return make([][]float64, n) }
	first := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), a, rows(2))
		first <- err
	}()
	<-running // the worker holds the first request; the queue is empty
	// A caller that has given up leaves its rows queued.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(gone, a, rows(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("4 rows into an empty depth-4 queue: %v, want them queued", err)
	}
	if _, err := b.Submit(gone, a, rows(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("a fifth queued row: %v, want ErrOverloaded", err)
	}
	if b.Sheds() != 1 {
		t.Fatalf("sheds = %d, want 1", b.Sheds())
	}
	unblock()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestOversizeRequestOnEmptyQueue: a request with more rows than
// QueueDepth is admitted whole onto an empty queue and served, in order,
// even when its jobs outnumber the queue's slots; while it is queued,
// other requests shed.
func TestOversizeRequestOnEmptyQueue(t *testing.T) {
	rows := func(n int) [][]float64 {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = []float64{float64(i)}
		}
		return xs
	}
	check := func(ys, xs [][]float64) {
		t.Helper()
		if len(ys) != len(xs) {
			t.Fatalf("got %d rows back, want %d", len(ys), len(xs))
		}
		for i := range xs {
			if len(ys[i]) != 1 || ys[i][0] != xs[i][0] {
				t.Fatalf("row %d came back as %v, want %v", i, ys[i], xs[i])
			}
		}
	}
	a := inst("a", 1, "s")

	// Five one-row jobs for a two-slot queue: the sender waits for the
	// worker instead of shedding.
	small := New(Config{MaxBatch: 1, Workers: 1, QueueDepth: 2}, echo)
	defer small.Shutdown()
	xs := rows(5)
	ys, err := small.Submit(context.Background(), a, xs)
	if err != nil {
		t.Fatalf("QueueDepth+3 rows on an idle group: %v", err)
	}
	check(ys, xs)

	running := make(chan struct{}, 8) // one per batch
	block := make(chan struct{})
	b := New(Config{MaxBatch: 2, Workers: 1, QueueDepth: 4}, func(batch []Job) {
		running <- struct{}{}
		<-block
		echo(batch)
	})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	defer func() { unblock(); b.Shutdown() }()
	first := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), a, rows(1))
		first <- err
	}()
	<-running // the worker holds the first request; the queue is empty
	type result struct {
		ys  [][]float64
		err error
	}
	oversize := make(chan result, 1)
	xs = rows(5)
	go func() {
		ys, err := b.Submit(context.Background(), a, xs)
		oversize <- result{ys, err}
	}()
	// Once the oversize request is queued, a one-row request sheds; one
	// that was wrongly admitted would end with its cancelled context.
	for b.group(a.Shape).queued.Load() != 5 {
		time.Sleep(time.Millisecond)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(gone, a, rows(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("one row beside a queued oversize request: %v, want ErrOverloaded", err)
	}
	unblock()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	res := <-oversize
	if res.err != nil {
		t.Fatalf("QueueDepth+1 rows on an empty queue: %v", res.err)
	}
	check(res.ys, xs)
}

// TestShutdownDrainsQueue: jobs queued at shutdown are answered with
// ErrDraining, and later submits refuse immediately.
func TestShutdownDrainsQueue(t *testing.T) {
	b := New(Config{MaxBatch: 4, Workers: 1}, echo)
	a := inst("a", 1, "s")
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	b.Shutdown()
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown = %v, want ErrDraining", err)
	}
}
