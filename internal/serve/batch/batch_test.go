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

// holdFirst wraps a run callback so that the first batch signals entered
// and waits for release: requests sent meanwhile queue behind a busy
// runner, whatever the scheduler does.
func holdFirst(run func([]Job)) (held func([]Job), entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(batch []Job) {
		once.Do(func() {
			close(entered)
			<-release
		})
		run(batch)
	}, entered, release
}

// waitQueued polls until b holds rows queued rows.
func waitQueued(t *testing.T, b *Batcher, rows int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.Queued() != rows {
		if time.Now().After(deadline) {
			t.Fatalf("%d rows queued, want %d", b.Queued(), rows)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCrossTenantSharedShapeGroup: two tenants with the same shape land in
// one group and their queued rows coalesce into one super-batch; a tenant
// with a different shape gets its own group.
func TestCrossTenantSharedShapeGroup(t *testing.T) {
	e := &echoRun{}
	run, entered, release := holdFirst(e.run)
	b := New(Config{MaxBatch: 16, Workers: 1}, run)
	defer b.Shutdown()

	a := inst("a", 1, "2-8-2")
	c := inst("c", 1, "2-8-2")
	d := inst("d", 1, "2-16-2")

	ctx := context.Background()
	var wg sync.WaitGroup
	submit := func(target *registry.Instance, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ys, err := b.Submit(ctx, target, [][]float64{{float64(i), 0}}, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if ys[0][0] != float64(i) {
				t.Errorf("row %d echoed %v", i, ys[0])
			}
		}()
	}
	// The first request holds the group's only runner while the other
	// seven queue behind it.
	submit(a, 0)
	<-entered
	for i := 1; i < 8; i++ {
		target := a
		if i%2 == 1 {
			target = c
		}
		submit(target, i)
	}
	waitQueued(t, b, 7)
	close(release)
	wg.Wait()
	if _, err := b.Submit(ctx, d, [][]float64{{9, 9}}, 0); err != nil {
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
	b := New(Config{MaxBatch: 4, Workers: 1, QueueDepth: 64},
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
			ys, err := b.Submit(ctx, a, xs, 0)
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
			_, err := b.Submit(ctx, a, [][]float64{{1}}, 0)
			done <- err
		}()
	}
	// With one blocked runner and depth 2, at most 1 (running) + 2
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
				return // the non-shed submissions are still blocked on the runner; fine
			}
			t.Fatalf("only %d rows shed before deadline", shed)
		}
	}
	if shed < 5 {
		t.Fatalf("shed %d rows, want >= 5", shed)
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
		_, err := b.Submit(context.Background(), a, rows(2), 0)
		first <- err
	}()
	<-running // the first request holds the runner; the queue is empty
	// A caller that has given up leaves its rows queued.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(gone, a, rows(4), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("4 rows into an empty depth-4 queue: %v, want them queued", err)
	}
	if _, err := b.Submit(gone, a, rows(1), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("a fifth queued row: %v, want ErrOverloaded", err)
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

	// Five one-row jobs on a depth-2 queue: admitted whole, and run one
	// batch after another on the sender's goroutine.
	small := New(Config{MaxBatch: 1, Workers: 1, QueueDepth: 2}, echo)
	defer small.Shutdown()
	xs := rows(5)
	ys, err := small.Submit(context.Background(), a, xs, 0)
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
		_, err := b.Submit(context.Background(), a, rows(1), 0)
		first <- err
	}()
	<-running // the first request holds the runner; the queue is empty
	type result struct {
		ys  [][]float64
		err error
	}
	oversize := make(chan result, 1)
	xs = rows(5)
	go func() {
		ys, err := b.Submit(context.Background(), a, xs, 0)
		oversize <- result{ys, err}
	}()
	// Once the oversize request is queued, a one-row request sheds; one
	// that was wrongly admitted would end with its cancelled context.
	waitQueued(t, b, 5)
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(gone, a, rows(1), 0); !errors.Is(err, ErrOverloaded) {
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
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}, 0); err != nil {
		t.Fatal(err)
	}
	b.Shutdown()
	if _, err := b.Submit(context.Background(), a, [][]float64{{1}}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown = %v, want ErrDraining", err)
	}
}

// idle reports whether g runs no batch and queues no row.
func idle(g *group) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.running == 0 && g.rows == 0 && len(g.queue) == 0
}

// TestQueuedDeadlineNeverStrandsGroup: requests whose deadline expires in
// the queue return context.DeadlineExceeded, their rows count against
// QueueDepth until the runner drops them, and the group then serves the
// next request on its caller's goroutine.
func TestQueuedDeadlineNeverStrandsGroup(t *testing.T) {
	var mu sync.Mutex
	served := 0
	run, entered, release := holdFirst(func(batch []Job) {
		mu.Lock()
		served += len(batch)
		mu.Unlock()
		echo(batch)
	})
	b := New(Config{MaxBatch: 4, Workers: 1, QueueDepth: 8}, run)
	defer b.Shutdown()
	a := inst("a", 1, "s")
	first := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), a, [][]float64{{1}}, 0)
		first <- err
	}()
	<-entered
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), a, [][]float64{{2}, {3}}, 5*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("queued past its deadline: %v, want context.DeadlineExceeded", err)
			}
		}()
	}
	wg.Wait()
	if got := b.Queued(); got != 6 {
		t.Fatalf("%d rows queued after the callers gave up, want 6 until a runner drops them", got)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if g := b.group(a.Shape); !idle(g) {
		t.Fatal("group still busy after its only runner finished")
	}
	ys, err := b.Submit(context.Background(), a, [][]float64{{4}}, time.Nanosecond)
	if err != nil || ys[0][0] != 4 {
		t.Fatalf("next request on the idle group: %v %v", ys, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if served != 2 {
		t.Fatalf("%d jobs ran, want 2: given-up jobs are dropped, not run", served)
	}
}

// TestHandedRunPassesOn: a caller that gives up after being handed the
// run passes it to the next queued job instead of stranding the group,
// and gives the slot back when no job waits.
func TestHandedRunPassesOn(t *testing.T) {
	b := New(Config{MaxBatch: 4, Workers: 1}, echo)
	defer b.Shutdown()
	g := b.group("s")
	job := func(v float64) Job {
		return Job{Inst: inst("a", 1, "s"), Xs: [][]float64{{v}}, Reply: make(chan Result, 1)}
	}
	x, y := job(1), job(2)

	// A runner holds the group's only slot while x and y queue.
	g.mu.Lock()
	g.running++
	b.running.Add(1)
	g.push(x)
	g.push(y)
	b.release(g) // the runner finishes: x is handed the run
	g.mu.Unlock()

	b.withdraw(g, []Job{x}) // x's deadline fires before it reads its reply
	res := <-y.Reply
	if !res.run {
		t.Fatalf("y got %+v, want the run x gave up", res)
	}
	g.mu.Lock()
	batch := b.gather(g, y)
	g.mu.Unlock()
	b.execute(g, batch)
	if res := <-y.Reply; res.Err != nil || res.Ys[0][0] != 2 {
		t.Fatalf("y's own batch answered %+v", res)
	}
	if !idle(g) {
		t.Fatal("slot not given back after the last queued job ran")
	}

	// Handed the run with nothing else queued, a caller that gives up
	// frees the slot.
	z := job(3)
	g.mu.Lock()
	g.running++
	b.running.Add(1)
	g.push(z)
	b.release(g)
	g.mu.Unlock()
	b.withdraw(g, []Job{z})
	if !idle(g) {
		t.Fatal("slot stranded by a caller that gave up its handed run")
	}
}

// TestDeadlineChurnNeverStrandsGroup: many requests whose deadlines expire
// while queued, while gathered into a batch or just as they are handed the
// run leave the group idle once they return, and Shutdown then returns.
func TestDeadlineChurnNeverStrandsGroup(t *testing.T) {
	b := New(Config{MaxBatch: 3, Workers: 1, QueueDepth: 64}, func(batch []Job) {
		time.Sleep(50 * time.Microsecond)
		echo(batch)
	})
	a := inst("a", 1, "s")
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				xs := make([][]float64, 1+(c+i)%5) // 4- and 5-row requests travel as two jobs
				for k := range xs {
					xs[k] = []float64{float64(k)}
				}
				timeout := time.Duration(10+(c*31+i*17)%200) * time.Microsecond
				ys, err := b.Submit(context.Background(), a, xs, timeout)
				switch {
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrOverloaded):
				case err != nil:
					t.Error(err)
					return
				case len(ys) != len(xs) || ys[len(xs)-1][0] != xs[len(xs)-1][0]:
					t.Errorf("%d rows answered %v", len(xs), ys)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !idle(b.group(a.Shape)) {
		t.Fatal("group left busy after every caller returned")
	}
	done := make(chan struct{})
	go func() { b.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown waits on a stranded batch")
	}
}
