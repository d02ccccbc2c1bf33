// Package batch is the fleet's request micro-batcher: concurrent predict
// requests are gathered into batched forward calls, and — the fleet's key
// property — requests are coalesced *across tenants that share a network
// shape*. Every tenant whose model has the same topology key feeds one
// shape group with its own queue and gather workers, so eight lightly
// loaded tenants fill batches as well as one heavily loaded tenant: one
// channel rendezvous, one workspace acquisition, and one scheduler wakeup
// per gathered super-batch instead of per tenant. A request travels as one
// job carrying all its rows and one reply channel; the run callback groups
// the gathered jobs by instance (weights differ per tenant) and pushes each
// instance's rows through one call of the batched forward spine.
//
// MaxBatch bounds the rows of one super-batch: a request with more rows is
// split into MaxBatch-row jobs, and a queued job that would overflow the
// batch being gathered opens the worker's next batch instead. Gathering is
// greedy first — whatever is already queued joins immediately — then one
// cooperative yield lets runnable submitters enqueue, and only a lone row
// on an idle queue waits out MaxWait for company. QueueDepth bounds the
// rows waiting in a shape group: a request that would overfill it sheds
// instead of blocking (ErrOverloaded), and the serve plane turns that into
// 429s, which is the queue-depth half of admission control. An empty queue
// admits any request whole, so one with more rows than QueueDepth is
// served on an idle group rather than refused with a 429 that no retry
// could clear.
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
// serve them. Reply is buffered so a worker never blocks on a caller that
// gave up.
type Job struct {
	Inst  *registry.Instance
	Xs    [][]float64
	Reply chan Result
}

// Result is one job's answer: Ys[i] is the prediction for Xs[i].
type Result struct {
	Ys  [][]float64
	Err error
}

// Config parameterizes a Batcher. Zero values get serve defaults.
type Config struct {
	// MaxBatch bounds the rows gathered into one super-batch (default 64).
	MaxBatch int
	// MaxWait bounds the extra latency a lone row pays waiting for
	// batch-mates (default 0: gather only what is queued).
	MaxWait time.Duration
	// QueueDepth bounds the rows queued in each shape group (default 1024).
	QueueDepth int
	// Workers is the number of gather-and-infer loops per shape group
	// (default GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
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
	cfg      Config
	run      func(batch []Job)
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	mu       sync.Mutex
	groups   map[string]*group
	sheds    atomic.Uint64
}

type group struct {
	// jobs blocks no sender but an oversize request's: each job holds at
	// least one row, and queued counts a job's rows from before it is sent
	// until after it is received. Admission keeps queued at or below
	// QueueDepth, the channel's capacity, except while an oversize request
	// admitted onto an empty queue is counted, and every other request
	// sheds then.
	jobs   chan Job
	queued atomic.Int64
}

// New builds a Batcher over the given inference callback. run receives a
// gathered super-batch — possibly spanning several instances of one shape
// — must answer every job's Reply, and must not retain the slice.
func New(cfg Config, run func(batch []Job)) *Batcher {
	return &Batcher{
		cfg:    cfg.withDefaults(),
		run:    run,
		stop:   make(chan struct{}),
		groups: make(map[string]*group),
	}
}

// group returns the shape group for key, creating it (and starting its
// workers) on first use.
func (b *Batcher) group(key string) *group {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.groups[key]
	if !ok {
		g = &group{jobs: make(chan Job, b.cfg.QueueDepth)}
		b.groups[key] = g
		b.wg.Add(b.cfg.Workers)
		for w := 0; w < b.cfg.Workers; w++ {
			go b.loop(g)
		}
	}
	return g
}

// GroupCount reports how many coalescing domains exist.
func (b *Batcher) GroupCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.groups)
}

// Sheds reports how many requests were refused on a full queue.
func (b *Batcher) Sheds() uint64 { return b.sheds.Load() }

// Submit queues the rows of xs for inst's shape group and waits for their
// results (or ctx). The request travels as MaxBatch-row jobs, usually
// one, and batches mix jobs from every tenant sharing the shape — that is
// the point. A request that would overfill a non-empty queue sheds whole
// with ErrOverloaded rather than blocking.
func (b *Batcher) Submit(ctx context.Context, inst *registry.Instance, xs [][]float64) ([][]float64, error) {
	select {
	case <-b.stop:
		return nil, ErrDraining
	default:
	}
	if len(xs) == 0 {
		return [][]float64{}, nil
	}
	g := b.group(inst.Shape)
	n := int64(len(xs))
	if was := g.queued.Add(n) - n; was > 0 && was+n > int64(b.cfg.QueueDepth) {
		g.queued.Add(-n)
		b.sheds.Add(1)
		return nil, ErrOverloaded
	}
	var stack [1]chan Result
	replies := stack[:0]
	for lo := 0; lo < len(xs); lo += b.cfg.MaxBatch {
		hi := min(lo+b.cfg.MaxBatch, len(xs))
		j := Job{Inst: inst, Xs: xs[lo:hi:hi], Reply: make(chan Result, 1)}
		if err := b.send(ctx, g, j); err != nil {
			g.queued.Add(-int64(len(xs) - lo))
			return nil, err
		}
		replies = append(replies, j.Reply)
	}
	var out [][]float64
	for i, reply := range replies {
		ys, err := wait(ctx, reply)
		switch {
		case err != nil:
			return nil, err
		case i == 0:
			// Capped, so that appending a later job's rows copies them out
			// of the memory the batch shares.
			out = ys[:len(ys):len(ys)]
		default:
			out = append(out, ys...)
		}
	}
	return out, nil
}

// send queues j on g. Only an oversize request's jobs can find the queue
// full (see group.jobs); they wait for the workers, ctx or shutdown.
func (b *Batcher) send(ctx context.Context, g *group, j Job) error {
	select {
	case g.jobs <- j:
		return nil
	default:
	}
	select {
	case g.jobs <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-b.stop:
		return ErrDraining
	}
}

// wait returns one job's predictions, or ctx's error if it ends first.
func wait(ctx context.Context, reply chan Result) ([][]float64, error) {
	select {
	case res := <-reply:
		return res.Ys, res.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// receive takes a job off g's queue, releasing its rows' share of
// QueueDepth.
func (g *group) receive(j Job) Job {
	g.queued.Add(-int64(len(j.Xs)))
	return j
}

func (b *Batcher) loop(g *group) {
	defer b.wg.Done()
	// One reusable batch buffer per worker: run must finish with the
	// slice before returning, so gather can reuse it without allocating
	// MaxBatch headers per batch.
	buf := make([]Job, 0, b.cfg.MaxBatch)
	// next is a received job that did not fit the previous batch; it
	// opens this worker's next one.
	var next Job
	for {
		first := next
		if first.Reply == nil {
			select {
			case <-b.stop:
				b.drain(g)
				return
			case j := <-g.jobs:
				first = g.receive(j)
			}
		}
		var batch []Job
		batch, next = b.gather(g, buf[:0], first)
		b.run(batch)
	}
}

// drain answers whatever is still queued after stop with ErrDraining. By
// the time stop closes, the HTTP server has already drained its handlers,
// so this is a defensive backstop, not the normal path.
func (b *Batcher) drain(g *group) {
	for {
		select {
		case j := <-g.jobs:
			j.Reply <- Result{Err: ErrDraining}
		default:
			return
		}
	}
}

// gather assembles a super-batch of at most MaxBatch rows around the
// first job, and returns it with the received job that would have
// overflowed it, if any. Batches form from backlog: everything already
// queued joins greedily, then one cooperative yield lets submitters that
// are already runnable enqueue before the batch closes. A batch that found
// company runs immediately; only a lone row on an idle queue is held, up
// to MaxWait, for near-simultaneous arrivals.
func (b *Batcher) gather(g *group, batch []Job, first Job) ([]Job, Job) {
	batch = append(batch, first)
	rows := len(first.Xs)
	var next Job
	batch, rows, next = b.greedy(g, batch, rows)
	if next.Reply == nil && rows < b.cfg.MaxBatch {
		runtime.Gosched()
		batch, rows, next = b.greedy(g, batch, rows)
	}
	if next.Reply != nil || rows > 1 || b.cfg.MaxWait <= 0 {
		return batch, next
	}
	timer := time.NewTimer(b.cfg.MaxWait)
	defer timer.Stop()
	select {
	case j := <-g.jobs:
		if batch, rows, next = b.add(batch, rows, g.receive(j)); next.Reply == nil {
			batch, _, next = b.greedy(g, batch, rows)
		}
	case <-timer.C:
	case <-b.stop:
	}
	return batch, next
}

// greedy drains whatever is queued right now into batch, up to MaxBatch
// rows.
func (b *Batcher) greedy(g *group, batch []Job, rows int) ([]Job, int, Job) {
	var next Job
	for rows < b.cfg.MaxBatch && next.Reply == nil {
		select {
		case j := <-g.jobs:
			batch, rows, next = b.add(batch, rows, g.receive(j))
		default:
			return batch, rows, next
		}
	}
	return batch, rows, next
}

// add appends j to a batch holding rows rows, or hands j back as the next
// batch's first job when it does not fit.
func (b *Batcher) add(batch []Job, rows int, j Job) ([]Job, int, Job) {
	if rows+len(j.Xs) > b.cfg.MaxBatch {
		return batch, rows, j
	}
	return append(batch, j), rows + len(j.Xs), Job{}
}

// Shutdown stops the workers of every group and waits for them;
// idempotent.
func (b *Batcher) Shutdown() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}
