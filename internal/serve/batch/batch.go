// Package batch is the fleet's request micro-batcher: concurrent predict
// requests are gathered into batched forward calls, and — the fleet's key
// property — rows are coalesced *across tenants that share a network
// shape*. Every tenant whose model has the same topology key feeds one
// shape group with its own queue and gather workers, so eight lightly
// loaded tenants fill batches as well as one heavily loaded tenant: one
// channel rendezvous, one workspace acquisition, and one scheduler wakeup
// per gathered super-batch instead of per tenant. The run callback groups
// the gathered rows by instance (weights differ per tenant) and pushes
// each sub-batch through the zero-allocation batched forward spine.
//
// Gathering is greedy first — whatever is already queued joins immediately
// — then one cooperative yield lets runnable submitters enqueue, and only
// a lone row on an idle queue waits out MaxWait for company. A full queue
// sheds instead of blocking (ErrOverloaded): the serve plane turns that
// into 429s, which is the queue-depth half of admission control.
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

// Job is one configuration vector waiting for inference, tagged with the
// immutable instance that must serve it. Reply is buffered so a worker
// never blocks on a caller that gave up.
type Job struct {
	Inst  *registry.Instance
	X     []float64
	Reply chan Result
}

// Result is one row's answer.
type Result struct {
	Y   []float64
	Err error
}

// Config parameterizes a Batcher. Zero values get serve defaults.
type Config struct {
	// MaxBatch bounds the rows gathered into one super-batch (default 64).
	MaxBatch int
	// MaxWait bounds the extra latency a lone row pays waiting for
	// batch-mates (default 0: gather only what is queued).
	MaxWait time.Duration
	// QueueDepth is each shape group's pending-row buffer (default 1024).
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
	jobs chan Job
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

// Sheds reports how many rows were refused on a full queue.
func (b *Batcher) Sheds() uint64 { return b.sheds.Load() }

// Submit enqueues every row of xs for inst's shape group and waits for all
// results (or ctx). Rows from one request may land in different batches,
// and batches mix rows from every tenant sharing the shape — that is the
// point. A full queue sheds with ErrOverloaded rather than blocking.
func (b *Batcher) Submit(ctx context.Context, inst *registry.Instance, xs [][]float64) ([][]float64, error) {
	select {
	case <-b.stop:
		return nil, ErrDraining
	default:
	}
	g := b.group(inst.Shape)
	jobs := make([]Job, len(xs))
	for i, x := range xs {
		jobs[i] = Job{Inst: inst, X: x, Reply: make(chan Result, 1)}
		select {
		case g.jobs <- jobs[i]:
		case <-b.stop:
			return nil, ErrDraining
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
			b.sheds.Add(1)
			return nil, ErrOverloaded
		}
	}
	out := make([][]float64, len(xs))
	for i := range jobs {
		select {
		case res := <-jobs[i].Reply:
			if res.Err != nil {
				return nil, res.Err
			}
			out[i] = res.Y
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

func (b *Batcher) loop(g *group) {
	defer b.wg.Done()
	// One reusable batch buffer per worker: run must finish with the
	// slice before returning, so gather can reuse it without allocating
	// MaxBatch headers per batch.
	buf := make([]Job, 0, b.cfg.MaxBatch)
	for {
		select {
		case <-b.stop:
			b.drain(g)
			return
		case j := <-g.jobs:
			b.run(b.gather(g, buf[:0], j))
		}
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

// gather assembles a super-batch around the first job. Batches form from
// backlog: everything already queued joins greedily, then one cooperative
// yield lets submitters that are already runnable enqueue before the batch
// closes. A batch that found company runs immediately; only a lone row on
// an idle queue is held, up to MaxWait, for near-simultaneous arrivals.
func (b *Batcher) gather(g *group, batch []Job, first Job) []Job {
	batch = append(batch, first)
	batch = b.greedy(g, batch)
	if len(batch) < b.cfg.MaxBatch {
		runtime.Gosched()
		batch = b.greedy(g, batch)
	}
	if len(batch) > 1 || b.cfg.MaxWait <= 0 {
		return batch
	}
	timer := time.NewTimer(b.cfg.MaxWait)
	defer timer.Stop()
	select {
	case j := <-g.jobs:
		return b.greedy(g, append(batch, j))
	case <-timer.C:
	case <-b.stop:
	}
	return batch
}

// greedy drains whatever is queued right now into batch, up to MaxBatch.
func (b *Batcher) greedy(g *group, batch []Job) []Job {
	for len(batch) < b.cfg.MaxBatch {
		select {
		case j := <-g.jobs:
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// Shutdown stops the workers of every group and waits for them;
// idempotent.
func (b *Batcher) Shutdown() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}
