package threetier

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"nnwc/internal/rng"
	"nnwc/internal/stats"
)

// Metrics are the measured outcomes of one simulation run.
type Metrics struct {
	Config Config

	// ResponseTimes holds the mean response time per class (seconds) over
	// transactions arriving in the measurement window.
	ResponseTimes [NumClasses]float64
	// Completed counts measured transactions that finished (including
	// past their deadline); Rejected counts measured transactions dropped
	// at a full pool queue; Censored counts measured transactions still
	// in flight when the drain limit expired.
	Completed [NumClasses]int
	Rejected  [NumClasses]int
	Censored  [NumClasses]int
	// EffectiveTPS is the paper's fifth indicator: transactions per
	// second completing within their class response-time constraint.
	EffectiveTPS float64
	// OfferedTPS is the measured arrival rate in the window.
	OfferedTPS float64
	// PoolUtilization is busy-thread-seconds / (threads × window) per pool.
	PoolUtilization [NumPools]float64
	// MeanQueueLen is the time-averaged wait-queue length per pool.
	MeanQueueLen [NumPools]float64
	// Samples holds each class's measured response times in completion
	// order; populated only when SystemParams.CollectSamples is set.
	Samples [NumClasses][]float64
	// MeanPoolWait and MeanPoolService break a class's mean response time
	// down by pool: time spent waiting for a thread of that pool and time
	// spent holding one (CPU + DB phases), per completed transaction.
	// Summing a class's row across pools recovers (approximately) its
	// mean response time — the residue is censoring. This is the
	// bottleneck-attribution view tuning decisions actually need.
	MeanPoolWait    [NumClasses][NumPools]float64
	MeanPoolService [NumClasses][NumPools]float64
}

// Bottleneck returns the pool where class c waits longest.
func (m *Metrics) Bottleneck(c Class) Pool {
	best := Pool(0)
	for p := 1; p < NumPools; p++ {
		if m.MeanPoolWait[c][p] > m.MeanPoolWait[c][best] {
			best = Pool(p)
		}
	}
	return best
}

// Percentiles summarizes one class's response-time distribution. It
// requires SystemParams.CollectSamples and at least one completion.
func (m *Metrics) Percentiles(c Class) (stats.Percentiles, error) {
	if len(m.Samples[c]) == 0 {
		return stats.Percentiles{}, fmt.Errorf("threetier: no samples for %v (CollectSamples off or no completions)", c)
	}
	return stats.SummarizePercentiles(m.Samples[c]), nil
}

// ResponseCI returns a ~95%% batch-means confidence interval for one
// class's mean response time. It requires SystemParams.CollectSamples.
func (m *Metrics) ResponseCI(c Class, batches int) (stats.ConfidenceInterval, error) {
	if len(m.Samples[c]) == 0 {
		return stats.ConfidenceInterval{}, fmt.Errorf("threetier: no samples for %v (CollectSamples off or no completions)", c)
	}
	return stats.BatchMeansCI(m.Samples[c], batches)
}

// Indicators returns the five performance indicators in the paper's order
// (four response times, then effective throughput). Response times are
// reported in milliseconds so that the magnitudes of all five outputs are
// comparable in reports.
func (m *Metrics) Indicators() []float64 {
	return []float64{
		m.ResponseTimes[Manufacturing] * 1000,
		m.ResponseTimes[DealerPurchase] * 1000,
		m.ResponseTimes[DealerManage] * 1000,
		m.ResponseTimes[DealerBrowse] * 1000,
		m.EffectiveTPS,
	}
}

// event kinds.
type eventKind int

const (
	evArrival eventKind = iota
	evCPUDone
	evStageDone
)

// An event is two words that hold no pointers. The high half of tag is the
// schedule order seq, the FIFO tie-break for equal times; being unique, it
// keeps comparisons off the low half, the payload. Event times are never
// negative or NaN, so (time, tag) orders as one 128-bit integer.
type event struct {
	tag  uint64 // seq<<32 | request<<2 | kind; arrivals carry request 0
	time uint64 // math.Float64bits of the event time
}

// Run fails before seq or a request index outgrows its field of tag.
const maxSeq, maxRequests = 1<<32 - 1, 1 << 30

func (e event) kind() eventKind { return eventKind(e.tag & 3) }
func (e event) req() int32      { return int32(uint32(e.tag) >> 2) }

// before is 1 if a orders before b, else 0: the borrow of a − b, branch-free.
func (a event) before(b event) uint64 {
	_, borrow := bits.Sub64(a.tag, b.tag, 0)
	_, borrow = bits.Sub64(a.time, b.time, borrow)
	return borrow
}

// eventHeap is a binary min-heap of events. It keeps every event in the
// slot container/heap's Push and Pop would: censoredOf sums over the array
// in slot order, and a different layout would change the dataset's bits.
type eventHeap []event

// push appends e and sifts it up, moving a hole where heap.Push swaps.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if e.before(q[i]) == 0 {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = e
}

// pop removes and returns the earliest event. heap.Pop swaps the last event
// x down the path of smaller children while a child orders before it; pop
// moves the root's hole down that path to the bottom, then back up while x
// orders before the hole's parent. Keys are unique and rise along the path,
// so both leave every event in the same slot.
//
//nnwc:hotpath
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if r := j + 1; r < n {
			j += int(q[r].before(q[j]))
		} else if j >= n {
			break
		}
		q[i] = q[j]
		i = j
	}
	for i > 0 {
		p := (i - 1) / 2 // parent
		if x.before(q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	*h = q[:n]
	return top
}

type request struct {
	class    Class
	arrival  float64
	stageIdx int
	measured bool

	queuedAt float64 // when the current stage was entered
	heldAt   float64 // when the current stage's thread was acquired
}

type pool struct {
	threads int
	busy    int
	queue   []int32 // waiting requests' slab indices, from head on
	head    int

	// accounting
	busyIntegral  float64
	queueIntegral float64
}

func (p *pool) qlen() int { return len(p.queue) - p.head }

func (p *pool) push(r int32) { p.queue = append(p.queue, r) }

// pop dequeues the oldest waiter. The queue rewinds when empty and compacts
// in place once its consumed prefix outgrows its waiters.
func (p *pool) pop() int32 {
	r := p.queue[p.head]
	p.head++
	switch {
	case p.head == len(p.queue):
		p.queue, p.head = p.queue[:0], 0
	case p.head >= 32 && p.head*2 > len(p.queue):
		p.queue, p.head = p.queue[:copy(p.queue, p.queue[p.head:])], 0
	}
	return r
}

// Simulator runs the three-tier model for one configuration.
type Simulator struct {
	cfg Config
	sys SystemParams
	// times holds each stage's CPU and database service-time
	// distributions, derived once from classProfiles and the variation
	// knobs.
	times [NumClasses][]stageTimes
	src   *rng.Source

	now    float64
	events eventHeap
	seq    uint64
	// reqs is the request slab that events and queues index. free lists
	// completed requests, which are in no heap slot and no queue, for reuse.
	reqs []request
	free []int32

	pools         [NumPools]pool
	busyCPU       int // requests currently in their CPU phase
	dbOutstanding int

	// measurement accumulators
	rtSamples   [NumClasses][]float64
	waitSum     [NumClasses][NumPools]float64
	svcSum      [NumClasses][NumPools]float64
	rtSum       [NumClasses]float64
	completed   [NumClasses]int
	effective   [NumClasses]int
	rejected    [NumClasses]int
	arrivals    int
	inFlight    int
	windowStart float64
	windowEnd   float64
}

// NewSimulator builds a simulator for the given configuration, system
// parameters, and random source.
func NewSimulator(cfg Config, sys SystemParams, src *rng.Source) (*Simulator, error) {
	s := new(Simulator)
	if err := s.reset(cfg, sys, src); err != nil {
		return nil, err
	}
	return s, nil
}

// reset makes s a new simulator for cfg that keeps the storage the old one
// grew: request slab, free list, event heap, pool queues and times table.
func (s *Simulator) reset(cfg Config, sys SystemParams, src *rng.Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if sys.Cores < 1 {
		return fmt.Errorf("threetier: need at least one core, got %d", sys.Cores)
	}
	old := *s
	if old.reqs == nil { // new: start at sizes most configurations need
		old.reqs, old.free, old.events = make([]request, 0, 256), make([]int32, 0, 256), make(eventHeap, 0, 64)
	}
	*s = Simulator{
		cfg:    cfg,
		sys:    sys,
		src:    src,
		events: old.events[:0],
		reqs:   old.reqs[:0],
		free:   old.free[:0],
	}
	for c := range classProfiles {
		times := old.times[c][:0]
		for _, st := range classProfiles[c].stages {
			times = append(times, stageTimes{
				cpu: newLognormal(st.cpuMean, sys.CPUVariation),
				db:  newLognormal(st.dbMean, sys.DBVariation),
			})
		}
		s.times[c] = times
	}
	threads := [NumPools]int{MfgPool: cfg.MfgThreads, WebPool: cfg.WebThreads, DefaultPool: cfg.DefaultThreads}
	for p := range s.pools {
		s.pools[p] = pool{threads: threads[p], queue: old.pools[p].queue[:0]}
	}
	s.windowStart = sys.WarmupTime
	s.windowEnd = sys.WarmupTime + sys.MeasureTime
	return nil
}

// Run executes the simulation: warm-up, measurement window, then a bounded
// drain so in-flight measured transactions can finish. It returns the
// collected metrics.
func (s *Simulator) Run() (*Metrics, error) {
	// Prime the arrival process: one Poisson stream in open loop, or one
	// staggered first submission per virtual user in closed loop.
	switch s.cfg.Mode {
	case OpenLoop:
		s.schedule(s.src.Exp(s.cfg.InjectionRate), evArrival, 0)
	case ClosedLoop:
		for u := 0; u < s.cfg.Users; u++ {
			s.schedule(s.src.Exp(1/s.cfg.ThinkTime), evArrival, 0)
		}
	}
	drainLimit := s.windowEnd + s.sys.MeasureTime*0.5

	for len(s.events) > 0 {
		if math.Float64frombits(s.events[0].time) > drainLimit {
			break
		}
		// An event schedules at most two more and makes at most one request.
		if s.seq > maxSeq-2 || len(s.reqs) >= maxRequests {
			return nil, errors.New("threetier: run outgrew 2^32 events or 2^30 requests")
		}
		e := s.events.pop()
		now := math.Float64frombits(e.time)
		s.advanceClocks(now)
		s.now = now
		switch e.kind() {
		case evArrival:
			s.onArrival()
		case evCPUDone:
			s.onCPUDone(e.req())
		case evStageDone:
			s.onStageDone(e.req())
		}
	}

	return s.collect(drainLimit), nil
}

// advanceClocks integrates the pools' busy threads and queue lengths from
// the last event, at s.now, to now.
func (s *Simulator) advanceClocks(now float64) {
	dt := now - s.now
	for i := range s.pools {
		p := &s.pools[i]
		p.busyIntegral += float64(p.busy) * dt
		p.queueIntegral += float64(p.qlen()) * dt
	}
}

func (s *Simulator) schedule(at float64, kind eventKind, r int32) {
	s.seq++
	s.events.push(event{tag: s.seq<<32 | uint64(r)<<2 | uint64(kind), time: math.Float64bits(at)})
}

func (s *Simulator) onArrival() {
	// In open loop the stream self-perpetuates; in closed loop the next
	// submission is scheduled when this user's transaction finishes. Load
	// generation stops at the end of the measurement window either way.
	if s.cfg.Mode == OpenLoop && s.now < s.windowEnd {
		s.schedule(s.now+s.src.Exp(s.cfg.InjectionRate), evArrival, 0)
	}
	if s.cfg.Mode == ClosedLoop && s.now >= s.windowEnd {
		return // the user retires instead of submitting
	}
	ri := s.newRequest(s.sampleClass())
	if s.now >= s.windowStart && s.now < s.windowEnd {
		s.reqs[ri].measured = true
		s.arrivals++
	}
	s.inFlight++
	s.enqueue(ri)
}

// newRequest returns the slab index of a request of class c arriving now,
// reusing a completed one's slot when the free list has one.
func (s *Simulator) newRequest(c Class) int32 {
	var ri int32
	if n := len(s.free); n > 0 {
		ri = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ri = int32(len(s.reqs))
		s.reqs = append(s.reqs, request{})
	}
	s.reqs[ri] = request{class: c, arrival: s.now}
	return ri
}

func (s *Simulator) sampleClass() Class {
	u := s.src.Float64()
	var acc float64
	for c := 0; c < NumClasses; c++ {
		acc += classProfiles[c].mix
		if u < acc {
			return Class(c)
		}
	}
	return Class(NumClasses - 1)
}

// enqueue places request ri at its current stage's pool, starting service
// immediately when a thread is free. A full wait queue rejects the
// transaction outright (admission control), which both matches production
// application servers and keeps saturated configurations' indicators
// finite.
func (s *Simulator) enqueue(ri int32) {
	r := &s.reqs[ri]
	r.queuedAt = s.now
	st := classProfiles[r.class].stages[r.stageIdx]
	p := &s.pools[st.pool]
	switch {
	case p.busy < p.threads:
		p.busy++
		s.startCPU(ri)
	case s.sys.QueueCap > 0 && p.qlen() >= s.sys.QueueCap:
		s.inFlight--
		if r.measured {
			s.rejected[r.class]++
		}
		s.free = append(s.free, ri)
		s.userDone()
	default:
		p.push(ri)
	}
}

// startCPU samples the CPU-phase duration under the current contention and
// schedules its completion. The thread is already held.
func (s *Simulator) startCPU(ri int32) {
	r := &s.reqs[ri]
	r.heldAt = s.now
	if r.measured {
		st := classProfiles[r.class].stages[r.stageIdx]
		s.waitSum[r.class][st.pool] += s.now - r.queuedAt
	}
	s.busyCPU++
	base := s.sampleTime(s.times[r.class][r.stageIdx].cpu)
	slow := s.cpuSlowdown()
	s.schedule(s.now+base*slow, evCPUDone, ri)
}

// cpuSlowdown models processor sharing across cores plus the per-thread
// management overhead of large pools.
func (s *Simulator) cpuSlowdown() float64 {
	contention := 1.0
	if s.busyCPU > s.sys.Cores {
		contention = float64(s.busyCPU) / float64(s.sys.Cores)
	}
	return contention * s.threadStretch()
}

// threadStretch is the holding-time inflation caused by every configured
// worker thread: context switches, cache pressure, and lock/connection
// contention stretch both the CPU and the database phases.
func (s *Simulator) threadStretch() float64 {
	total := s.cfg.MfgThreads + s.cfg.WebThreads + s.cfg.DefaultThreads
	return 1 + s.sys.ThreadOverhead*float64(total)
}

func (s *Simulator) onCPUDone(ri int32) {
	s.busyCPU--
	r := &s.reqs[ri]
	st := classProfiles[r.class].stages[r.stageIdx]
	if st.dbMean <= 0 {
		s.onStageDone(ri)
		return
	}
	// Database call made while holding the worker thread.
	stretch := s.threadStretch()
	if s.dbOutstanding > s.sys.DBSoftLimit {
		stretch += s.sys.DBSlowdown * float64(s.dbOutstanding-s.sys.DBSoftLimit)
	}
	s.dbOutstanding++
	d := s.sampleTime(s.times[r.class][r.stageIdx].db) * stretch
	s.schedule(s.now+d, evStageDone, ri)
}

func (s *Simulator) onStageDone(ri int32) {
	r := &s.reqs[ri]
	st := classProfiles[r.class].stages[r.stageIdx]
	if st.dbMean > 0 {
		s.dbOutstanding--
	}
	if r.measured {
		s.svcSum[r.class][st.pool] += s.now - r.heldAt
	}
	// Release the worker thread; hand it to the next waiter if any.
	p := &s.pools[st.pool]
	if p.qlen() > 0 {
		s.startCPU(p.pop())
	} else {
		p.busy--
	}

	r.stageIdx++
	if r.stageIdx < len(classProfiles[r.class].stages) {
		s.enqueue(ri)
		return
	}
	// Transaction complete.
	s.inFlight--
	if r.measured {
		rt := s.now - r.arrival
		s.rtSum[r.class] += rt
		s.completed[r.class]++
		if s.sys.CollectSamples {
			s.rtSamples[r.class] = append(s.rtSamples[r.class], rt)
		}
		if rt <= classProfiles[r.class].deadline {
			s.effective[r.class]++
		}
	}
	s.free = append(s.free, ri)
	s.userDone()
}

// userDone returns a closed-loop virtual user to its think state after its
// transaction completes (or is rejected). No-op in open loop.
func (s *Simulator) userDone() {
	if s.cfg.Mode != ClosedLoop {
		return
	}
	s.schedule(s.now+s.src.Exp(1/s.cfg.ThinkTime), evArrival, 0)
}

// lognormal is a service-time distribution with a given mean and
// coefficient of variation, kept as the underlying normal's (mu, sigma).
// A non-positive variation makes every draw the mean.
type lognormal struct {
	mean, mu, sigma float64
	fixed           bool
}

func newLognormal(mean, cv float64) lognormal {
	if cv <= 0 {
		return lognormal{mean: mean, fixed: true}
	}
	sigma2 := math.Log(1 + cv*cv)
	return lognormal{mean: mean, mu: math.Log(mean) - sigma2/2, sigma: math.Sqrt(sigma2)}
}

// stageTimes are one stage's CPU-phase and database-phase distributions.
type stageTimes struct {
	cpu, db lognormal
}

// sampleTime draws one service time from d.
func (s *Simulator) sampleTime(d lognormal) float64 {
	if d.fixed {
		return d.mean
	}
	return s.src.LogNormal(d.mu, d.sigma)
}

func (s *Simulator) collect(drainEnd float64) *Metrics {
	m := &Metrics{Config: s.cfg}
	var effTotal int
	for c := 0; c < NumClasses; c++ {
		n := s.completed[c]
		sum := s.rtSum[c]
		// Requests still in flight after the drain are censored at the
		// drain horizon: they contribute a lower-bound response time and
		// never count as effective. This keeps saturated configurations
		// finite while preserving their "bad" signal.
		cens := s.censoredOf(Class(c), drainEnd)
		n += cens.count
		sum += cens.rtSum
		m.Censored[c] = cens.count
		m.Completed[c] = s.completed[c]
		m.Rejected[c] = s.rejected[c]
		if n > 0 {
			m.ResponseTimes[c] = sum / float64(n)
		}
		effTotal += s.effective[c]
	}
	if s.sys.CollectSamples {
		m.Samples = s.rtSamples
	}
	for c := 0; c < NumClasses; c++ {
		if s.completed[c] == 0 {
			continue
		}
		n := float64(s.completed[c])
		for p := 0; p < NumPools; p++ {
			m.MeanPoolWait[c][p] = s.waitSum[c][p] / n
			m.MeanPoolService[c][p] = s.svcSum[c][p] / n
		}
	}
	m.EffectiveTPS = float64(effTotal) / s.sys.MeasureTime
	m.OfferedTPS = float64(s.arrivals) / s.sys.MeasureTime
	window := drainEnd
	s.advanceClocks(drainEnd)
	for i := range s.pools {
		p := &s.pools[i]
		m.PoolUtilization[i] = p.busyIntegral / (float64(p.threads) * window)
		m.MeanQueueLen[i] = p.queueIntegral / window
	}
	return m
}

type censoredStats struct {
	count int
	rtSum float64
}

// censoredOf walks the remaining events and queues for measured requests of
// class c that never completed. A live request sits in exactly one heap
// slot or one queue slot, and arrivals carry none, so none counts twice.
func (s *Simulator) censoredOf(c Class, horizon float64) censoredStats {
	var out censoredStats
	add := func(ri int32) {
		if r := &s.reqs[ri]; r.measured && r.class == c {
			out.count++
			out.rtSum += horizon - r.arrival
		}
	}
	for _, e := range s.events {
		if e.kind() != evArrival {
			add(e.req())
		}
	}
	for i := range s.pools {
		for _, ri := range s.pools[i].queue[s.pools[i].head:] {
			add(ri)
		}
	}
	return out
}

// Run is a convenience wrapper: build a simulator and run it.
func Run(cfg Config, sys SystemParams, seed uint64) (*Metrics, error) {
	sim, err := NewSimulator(cfg, sys, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
