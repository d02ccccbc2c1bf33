// Package batch is the fleet's request micro-batcher: concurrent predict
// requests are gathered into batched forward calls, coalesced *across
// tenants that share a network shape*: every tenant whose model has the
// same topology key feeds one shape group. A request travels as one job
// carrying all its rows and one reply channel; the run callback groups a
// batch's jobs by instance (weights differ per tenant) and pushes each
// instance's rows through one call of the batched forward spine.
//
// The batcher owns no goroutines: a batch runs on the goroutine of its
// first request. A request that finds fewer than Workers batches of its
// group running runs its own job at once; otherwise it queues. A runner
// that finishes while jobs are queued hands the run to the oldest queued
// job's goroutine through that job's reply channel, and that batch holds
// its own job first, then the queued jobs that fit, up to MaxBatch rows.
//
// A request with more than MaxBatch rows is split into MaxBatch-row jobs.
// QueueDepth bounds the rows waiting in a shape group: a request that
// would overfill a non-empty queue sheds (ErrOverloaded), which the serve
// plane turns into 429s. An empty queue admits any request whole, so one
// with more rows than QueueDepth is served rather than refused with a 429
// that no retry could clear.
package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nnwc/internal/serve/registry"
)

// ErrDraining is returned to requests that reach the batcher while the
// server is shutting down.
var ErrDraining = errors.New("serve: server is draining")

// ErrOverloaded is returned when a shape group's queue is full — the
// load-shedding signal admission control turns into 429s.
var ErrOverloaded = errors.New("serve: prediction queue is full")

// Job is one request's configuration vectors (at most MaxBatch of them)
// waiting for inference, tagged with the immutable instance that must
// serve them. Reply is buffered, and every job receives exactly one
// message on it, so a runner never blocks on a caller that gave up.
type Job struct {
	Inst  *registry.Instance
	Xs    [][]float64
	Reply chan Result
}

// Result is one job's answer: Ys[i] is the prediction for Xs[i].
type Result struct {
	Ys  [][]float64
	Err error
	// run hands the receiving job the group's next batch instead of an
	// answer.
	run bool
}

// Config parameterizes a Batcher. Zero values get serve defaults.
type Config struct {
	// MaxBatch bounds the rows gathered into one batch (default 64).
	MaxBatch int
	// QueueDepth bounds the rows queued in each shape group (default 1024).
	QueueDepth int
	// Workers bounds the batches of one shape group that run at once
	// (default GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Batcher owns the shape groups. Groups are created on demand when the
// first instance with a new topology key submits.
type Batcher struct {
	cfg     Config
	run     func(batch []Job)
	stopped atomic.Bool
	running sync.WaitGroup // one count per running batch
	mu      sync.Mutex
	groups  map[string]*group
}

// group is one shape's queue. Jobs queue only while Workers batches run,
// and a finishing runner hands its run on while any job is queued, so a
// non-empty queue always has a runner that will reach it.
type group struct {
	mu      sync.Mutex
	queue   []Job // oldest first; a nil Reply marks a job whose caller gave up
	rows    int   // rows in queue, given-up jobs included
	running int
	free    [][]Job // batch buffers, at most Workers of them
}

// New builds a Batcher over the given inference callback. run receives a
// gathered batch — possibly spanning several instances of one shape —
// must answer every job's Reply, and must not retain the slice.
func New(cfg Config, run func(batch []Job)) *Batcher {
	return &Batcher{
		cfg:    cfg.withDefaults(),
		run:    run,
		groups: make(map[string]*group),
	}
}

// group returns the shape group for key, creating it on first use.
func (b *Batcher) group(key string) *group {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[key]
	if !ok {
		g = &group{}
		b.groups[key] = g
	}
	return g
}

// GroupCount reports how many coalescing domains exist.
func (b *Batcher) GroupCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.groups)
}

// Queued reports the rows waiting in every shape group's queue, those of
// callers that gave up included.
func (b *Batcher) Queued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.groups {
		g.mu.Lock()
		n += g.rows
		g.mu.Unlock()
	}
	return n
}

// Submit runs the rows of xs through inst's shape group and returns their
// predictions. A request that would overfill a non-empty queue sheds whole
// with ErrOverloaded. Only a job that queues waits, at most timeout (when
// positive) or until ctx ends; a job that runs its own batch finishes it.
func (b *Batcher) Submit(ctx context.Context, inst *registry.Instance, xs [][]float64, timeout time.Duration) ([][]float64, error) {
	if len(xs) == 0 {
		return [][]float64{}, nil
	}
	var stack [1]Job
	jobs := stack[:0]
	for lo := 0; lo < len(xs); lo += b.cfg.MaxBatch {
		hi := min(lo+b.cfg.MaxBatch, len(xs))
		jobs = append(jobs, Job{Inst: inst, Xs: xs[lo:hi:hi], Reply: make(chan Result, 1)})
	}
	g := b.group(inst.Shape)
	g.mu.Lock()
	if b.stopped.Load() {
		g.mu.Unlock()
		return nil, ErrDraining
	}
	if g.rows > 0 && g.rows+len(xs) > b.cfg.QueueDepth {
		g.mu.Unlock()
		return nil, ErrOverloaded
	}
	var batch []Job
	queued := jobs
	if g.running < b.cfg.Workers {
		g.running++
		b.running.Add(1)
		batch, queued = b.gather(g, jobs[0]), jobs[1:]
	}
	for _, j := range queued {
		g.push(j)
	}
	g.mu.Unlock()
	if batch != nil {
		b.execute(g, batch)
	}

	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	var out [][]float64
	for k := 0; k < len(jobs); {
		res, err := b.await(ctx, g, jobs[k:], &timer, timeout)
		switch {
		case err != nil:
			return nil, err
		case res.run:
			// Handed the run: jobs[k] leads the batch, and its answer is
			// waiting once the batch is done.
			g.mu.Lock()
			batch := b.gather(g, jobs[k])
			g.mu.Unlock()
			b.execute(g, batch)
			continue
		case res.Err != nil:
			b.withdraw(g, jobs[k+1:])
			return nil, res.Err
		case k == 0:
			// Capped, so that appending a later job's rows copies them out
			// of the memory the batch shares.
			out = res.Ys[:len(res.Ys):len(res.Ys)]
		default:
			out = append(out, res.Ys...)
		}
		k++
	}
	return out, nil
}

// await returns the message for jobs[0], the first of a request's jobs
// still unanswered. An answer already there is taken at once; otherwise
// the request's deadline timer is armed, the first time it waits, and a
// request whose ctx or deadline ends first withdraws every job in jobs.
func (b *Batcher) await(ctx context.Context, g *group, jobs []Job, timer **time.Timer, timeout time.Duration) (Result, error) {
	reply := jobs[0].Reply
	select {
	case res := <-reply:
		return res, nil
	default:
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		if *timer == nil {
			*timer = time.NewTimer(timeout)
		}
		deadline = (*timer).C
	}
	err := context.DeadlineExceeded
	select {
	case res := <-reply:
		return res, nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-deadline:
	}
	b.withdraw(g, jobs)
	return Result{}, err
}

// gather assembles a batch led by first from the queued jobs that fit
// beside it, oldest first, dropping those whose callers gave up. g must be
// locked and one of its running slots taken for the batch.
func (b *Batcher) gather(g *group, first Job) []Job {
	var batch []Job
	if n := len(g.free); n > 0 {
		batch, g.free = g.free[n-1], g.free[:n-1]
	} else {
		batch = make([]Job, 0, b.cfg.MaxBatch)
	}
	batch = append(batch, first)
	rows := len(first.Xs)
	for len(g.queue) > 0 {
		j := g.queue[0]
		if j.Reply != nil && rows+len(j.Xs) > b.cfg.MaxBatch {
			break
		}
		g.pop()
		if j.Reply != nil {
			batch = append(batch, j)
			rows += len(j.Xs)
		}
	}
	return batch
}

// execute runs a gathered batch on the calling goroutine, then hands its
// running slot on or gives it back.
func (b *Batcher) execute(g *group, batch []Job) {
	b.run(batch)
	clear(batch)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.free = append(g.free, batch[:0])
	//lint:waive lockhold -- a queued job's Reply is buffered and has had no message yet, so the send cannot block; it must happen under g.mu so that withdraw sees the job either queued or handed
	b.release(g)
}

// release gives up a running slot of g, which must be locked: the oldest
// queued job whose caller still waits is handed the run, or, when none
// is, the slot frees. Jobs whose callers gave up are dropped on the way.
func (b *Batcher) release(g *group) {
	for len(g.queue) > 0 {
		if j := g.pop(); j.Reply != nil {
			j.Reply <- Result{run: true}
			return
		}
	}
	g.running--
	b.running.Done()
}

// withdraw takes back the jobs of a caller that stops waiting. Queued jobs
// are marked given up; their rows count against QueueDepth until a runner
// drops them. A job that was handed the run passes it on; any other job is
// in a running batch, whose answer lands in its buffered reply unread.
func (b *Batcher) withdraw(g *group, jobs []Job) {
	g.mu.Lock()
	defer g.mu.Unlock()
	handed := 0
next:
	for _, j := range jobs {
		for i := range g.queue {
			if g.queue[i].Reply == j.Reply {
				g.queue[i].Reply = nil
				continue next
			}
		}
		select {
		case res := <-j.Reply:
			if res.run {
				handed++
			}
		default:
		}
	}
	for ; handed > 0; handed-- {
		//lint:waive lockhold -- a queued job's Reply is buffered and has had no message yet, so the send cannot block; it must happen under g.mu so that withdraw sees the job either queued or handed
		b.release(g)
	}
}

// push queues j at the back of g.
func (g *group) push(j Job) {
	g.queue = append(g.queue, j)
	g.rows += len(j.Xs)
}

// pop takes the oldest job off g's queue, releasing its rows' share of
// QueueDepth.
func (g *group) pop() Job {
	j := g.queue[0]
	g.queue[0] = Job{}
	g.queue = g.queue[1:]
	g.rows -= len(j.Xs)
	return j
}

// Shutdown answers every queued job with ErrDraining, refuses later
// submits, and waits for the running batches; idempotent. By the time it
// is called, the HTTP server has already drained its handlers, so the
// queue is normally empty.
func (b *Batcher) Shutdown() {
	b.stopped.Store(true)
	b.mu.Lock()
	for _, g := range b.groups {
		g.mu.Lock()
		for len(g.queue) > 0 {
			if j := g.pop(); j.Reply != nil {
				//lint:waive lockhold -- a queued job's Reply is buffered and has had no message yet, so the send cannot block
				j.Reply <- Result{Err: ErrDraining}
			}
		}
		g.mu.Unlock()
	}
	b.mu.Unlock()
	b.running.Wait()
}
