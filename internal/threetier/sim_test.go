package threetier

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nnwc/internal/queueing"
	"nnwc/internal/rng"
)

// testParams returns fast simulation windows for unit tests.
func testParams() SystemParams {
	sys := DefaultSystemParams()
	sys.WarmupTime = 3
	sys.MeasureTime = 15
	return sys
}

func TestConfigValidate(t *testing.T) {
	ok := Config{InjectionRate: 100, MfgThreads: 1, WebThreads: 1, DefaultThreads: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{InjectionRate: 0, MfgThreads: 1, WebThreads: 1, DefaultThreads: 1},
		{InjectionRate: 100, MfgThreads: 0, WebThreads: 1, DefaultThreads: 1},
		{InjectionRate: 100, MfgThreads: 1, WebThreads: 0, DefaultThreads: 1},
		{InjectionRate: 100, MfgThreads: 1, WebThreads: 1, DefaultThreads: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigVectorRoundTrip(t *testing.T) {
	c := Config{InjectionRate: 560, DefaultThreads: 7, MfgThreads: 16, WebThreads: 18}
	v := c.Vector()
	// Paper ordering: (injection rate, default, mfg, web).
	if v[0] != 560 || v[1] != 7 || v[2] != 16 || v[3] != 18 {
		t.Fatalf("vector %v", v)
	}
	back, err := ConfigFromVector(v)
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip %+v != %+v", back, c)
	}
	if _, err := ConfigFromVector([]float64{1, 2}); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestClassAndPoolStrings(t *testing.T) {
	names := map[string]bool{}
	for c := 0; c < NumClasses; c++ {
		n := Class(c).String()
		if n == "" || names[n] {
			t.Fatalf("class name %q empty or duplicate", n)
		}
		names[n] = true
	}
	for p := 0; p < NumPools; p++ {
		n := Pool(p).String()
		if n == "" || names[n] {
			t.Fatalf("pool name %q empty or duplicate", n)
		}
		names[n] = true
	}
	if Class(99).String() == "" || Pool(99).String() == "" {
		t.Fatal("unknown ids should still render")
	}
}

func TestProfilesMixSumsToOne(t *testing.T) {
	var sum float64
	for _, p := range classProfiles {
		sum += p.mix
		if len(p.stages) == 0 {
			t.Fatal("class with no stages")
		}
		if p.deadline <= 0 {
			t.Fatal("class without deadline")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mix sums to %v", sum)
	}
}

func TestSchemaNames(t *testing.T) {
	if len(FeatureNames()) != 4 || len(IndicatorNames()) != 5 {
		t.Fatal("schema sizes wrong")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	a, err := Run(cfg, testParams(), 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, testParams(), 123)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ResponseTimes {
		if a.ResponseTimes[i] != b.ResponseTimes[i] {
			t.Fatal("same seed produced different response times")
		}
	}
	if a.EffectiveTPS != b.EffectiveTPS {
		t.Fatal("same seed produced different throughput")
	}
	c, err := Run(cfg, testParams(), 124)
	if err != nil {
		t.Fatal(err)
	}
	if a.ResponseTimes[0] == c.ResponseTimes[0] {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestOfferedRateMatchesInjectionRate(t *testing.T) {
	cfg := Config{InjectionRate: 500, MfgThreads: 16, WebThreads: 20, DefaultThreads: 10}
	m, err := Run(cfg, testParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.OfferedTPS-500)/500 > 0.05 {
		t.Fatalf("offered %v, want ~500", m.OfferedTPS)
	}
}

func TestLowLoadResponseApproxServiceTime(t *testing.T) {
	// At very low load, queueing is negligible and the response time is
	// roughly the sum of service demands times the thread-overhead
	// stretch.
	cfg := Config{InjectionRate: 20, MfgThreads: 8, WebThreads: 8, DefaultThreads: 8}
	sys := testParams()
	m, err := Run(cfg, sys, 6)
	if err != nil {
		t.Fatal(err)
	}
	stretch := 1 + sys.ThreadOverhead*24
	for c, prof := range classProfiles {
		var base float64
		for _, st := range prof.stages {
			base += st.cpuMean + st.dbMean
		}
		want := base * stretch
		got := m.ResponseTimes[c]
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%v: low-load RT %v, want ~%v", Class(c), got, want)
		}
	}
}

func TestStarvedPoolRaisesResponseTime(t *testing.T) {
	sys := testParams()
	rich := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 20, DefaultThreads: 8}
	starved := rich
	starved.WebThreads = 6
	a, err := Run(rich, sys, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(starved, sys, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.ResponseTimes[DealerPurchase] < 2*a.ResponseTimes[DealerPurchase] {
		t.Fatalf("starving the web pool barely changed purchase RT: %v vs %v",
			b.ResponseTimes[DealerPurchase], a.ResponseTimes[DealerPurchase])
	}
	if b.EffectiveTPS > a.EffectiveTPS {
		t.Fatal("starved pool should not increase effective throughput")
	}
}

func TestDefaultQueueIrrelevantToManufacturingShape(t *testing.T) {
	// The paper's Figure 4 (parallel slopes): at an adequate web pool, the
	// default queue has little effect on manufacturing response time
	// compared to its effect on dealer purchase.
	sys := testParams()
	base := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	low := base
	low.DefaultThreads = 2
	a, err := Run(base, sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(low, sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	mfgChange := math.Abs(b.ResponseTimes[Manufacturing]-a.ResponseTimes[Manufacturing]) /
		a.ResponseTimes[Manufacturing]
	purChange := math.Abs(b.ResponseTimes[DealerPurchase]-a.ResponseTimes[DealerPurchase]) /
		a.ResponseTimes[DealerPurchase]
	if purChange < 5*mfgChange {
		t.Fatalf("default-queue starvation: purchase moved %.1f%%, mfg %.1f%% — expected purchase >> mfg",
			purChange*100, mfgChange*100)
	}
}

func TestOverProvisioningHurtsThroughput(t *testing.T) {
	// The paper's Figure 8 (hills): giant pools must cost throughput.
	sys := testParams()
	tuned := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 20, DefaultThreads: 8}
	bloated := Config{InjectionRate: 560, MfgThreads: 64, WebThreads: 64, DefaultThreads: 64}
	a, err := Run(tuned, sys, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(bloated, sys, 9)
	if err != nil {
		t.Fatal(err)
	}
	if b.EffectiveTPS > 0.8*a.EffectiveTPS {
		t.Fatalf("bloated pools kept throughput: %v vs tuned %v", b.EffectiveTPS, a.EffectiveTPS)
	}
}

func TestRejectionAccounting(t *testing.T) {
	// Under heavy starvation, rejections must appear and the effective
	// throughput must fall well below the offered rate.
	cfg := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 2, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var rejected int
	for c := 0; c < NumClasses; c++ {
		rejected += m.Rejected[c]
	}
	if rejected == 0 {
		t.Fatal("no rejections under extreme starvation")
	}
	if m.EffectiveTPS > m.OfferedTPS/2 {
		t.Fatalf("effective %v should be far below offered %v", m.EffectiveTPS, m.OfferedTPS)
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for p, u := range m.PoolUtilization {
		if u < 0 || u > 1.0001 {
			t.Fatalf("pool %v utilization %v", Pool(p), u)
		}
	}
	for p, q := range m.MeanQueueLen {
		if q < 0 {
			t.Fatalf("pool %v mean queue length %v", Pool(p), q)
		}
	}
}

func TestIndicatorsVector(t *testing.T) {
	cfg := Config{InjectionRate: 300, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 12)
	if err != nil {
		t.Fatal(err)
	}
	ind := m.Indicators()
	if len(ind) != 5 {
		t.Fatalf("%d indicators", len(ind))
	}
	// Milliseconds conversion.
	if math.Abs(ind[0]-m.ResponseTimes[Manufacturing]*1000) > 1e-9 {
		t.Fatal("indicator 0 is not ms of manufacturing RT")
	}
	if ind[4] != m.EffectiveTPS {
		t.Fatal("indicator 4 is not effective TPS")
	}
}

// TestSimulatorMatchesAnalyticSingleStage cross-validates the DES against
// the M/M/c oracle: a lightly loaded pool where CPU time dominates and
// contention is negligible behaves like an M/M/c queue with service rate
// 1/(cpu+db).
func TestSimulatorMatchesAnalyticMM_C(t *testing.T) {
	// Use browse-dominated load at low rate: almost all time is the web
	// stage. We compare the simulator's browse RT against the M/M/c
	// response time of the web pool plus its default-stage time, within a
	// generous tolerance (the simulator has lognormal service, not
	// exponential, and a second stage).
	sys := testParams()
	sys.ThreadOverhead = 0 // isolate pure queueing
	sys.CPUVariation = 1.0 // CV=1 matches the exponential assumption
	sys.DBVariation = 1.0
	sys.MeasureTime = 60

	cfg := Config{InjectionRate: 200, MfgThreads: 32, WebThreads: 6, DefaultThreads: 32}
	m, err := Run(cfg, sys, 13)
	if err != nil {
		t.Fatal(err)
	}

	// Offered load at the web pool: every class's first stage.
	profs := classProfiles
	var webHold, webRate float64
	for _, p := range profs {
		st := p.stages[0]
		if st.pool == WebPool {
			webHold += p.mix * (st.cpuMean + st.dbMean)
			webRate += p.mix * cfg.InjectionRate
		}
	}
	meanService := webHold / (webRate / cfg.InjectionRate) // E[S] per web visit
	q := queueing.MMC{Lambda: webRate, Mu: 1 / meanService, C: cfg.WebThreads}
	wq, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}

	// Browse = web wait + web service + default stage (uncongested).
	browse := profs[DealerBrowse]
	want := wq + browse.stages[0].cpuMean + browse.stages[0].dbMean +
		browse.stages[1].cpuMean + browse.stages[1].dbMean
	got := m.ResponseTimes[DealerBrowse]
	if math.Abs(got-want)/want > 0.30 {
		t.Fatalf("DES browse RT %v, analytic ≈ %v (>30%% apart)", got, want)
	}
}

func BenchmarkSimulation(b *testing.B) {
	sys := DefaultSystemParams()
	sys.WarmupTime, sys.MeasureTime = 2, 8
	cfg := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, sys, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunAllocsIndependentOfSimulatedTime pins the event loop to zero
// allocations per event: on BenchmarkSimulation's non-saturated config, a
// run four times longer may allocate only a few dozen more times (heap
// and free-list growth), not once per event as container/heap and a fresh
// request per arrival did.
func TestRunAllocsIndependentOfSimulatedTime(t *testing.T) {
	cfg := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	allocs := func(measure float64) float64 {
		sys := DefaultSystemParams()
		sys.WarmupTime, sys.MeasureTime = 2, measure
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg, sys, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2), allocs(8)
	if long-short > 48 {
		t.Fatalf("Run allocates %.0f times at MeasureTime 2 but %.0f at 8: the event loop allocates per event", short, long)
	}
}

// TestSimulatorResetAllocs pins Simulator.reset, once the simulator's
// storage has grown, to zero allocations: every reset shares the class
// table's stages instead of building them anew for each configuration.
func TestSimulatorResetAllocs(t *testing.T) {
	cfg := Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	sys := DefaultSystemParams()
	src := rng.New(1)
	s, err := NewSimulator(cfg, sys, src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.reset(cfg, sys, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Simulator.reset allocates %.0f times per configuration, want 0", allocs)
	}
}

// metricsDigest hashes every measured field of m bit for bit, samples
// included: SHA-256 over the little-endian math.Float64bits of each value.
func metricsDigest(m *Metrics) string {
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(m.ResponseTimes[:]...)
	for c := 0; c < NumClasses; c++ {
		put(float64(m.Completed[c]), float64(m.Rejected[c]), float64(m.Censored[c]))
		put(m.Samples[c]...)
		put(m.MeanPoolWait[c][:]...)
		put(m.MeanPoolService[c][:]...)
	}
	put(m.EffectiveTPS, m.OfferedTPS)
	put(m.PoolUtilization[:]...)
	put(m.MeanQueueLen[:]...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunMatchesParentDigest pins every Metrics field, not only the
// dataset's indicators, to the bits of the pointer-based simulator with
// the container/heap event queue: utilizations, queue lengths, per-pool
// breakdowns and response-time samples, in open loop (rejecting and
// censoring), with fixed service times, and in closed loop.
func TestRunMatchesParentDigest(t *testing.T) {
	base := DefaultSystemParams()
	base.WarmupTime, base.MeasureTime = 1, 4
	base.CollectSamples = true
	censor, fixed := base, base
	censor.QueueCap = 0
	fixed.CPUVariation, fixed.DBVariation = 0, 0
	saturated := Config{InjectionRate: 640, MfgThreads: 8, WebThreads: 8, DefaultThreads: 2}
	cases := []struct {
		name          string
		cfg           Config
		sys           SystemParams
		want, want386 string
	}{
		{"reject", saturated, base, "77974d4c2fe40a902b640ed5cded1ce8482693975b2c57358457f1fb54c30e69",
			"629e598acc2a553d4696a22cc104c3c02dd68c2c369393bfa15f268f783a4b11"},
		{"censor", saturated, censor, "18814f65a8a8cf91ad373c695431fd58c65b8682b6817679c0d3cd4ef6f5462e",
			"33dba02065f2254ca02ffa5988646e3de162cebf52e16333a8d71a343c371929"},
		// Fixed service times draw no lognormal, so no math.Exp or math.Log.
		{"fixed", Config{InjectionRate: 560, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}, fixed, "e4d09f17e36a61321293afce41ab9e357c057ebe663f89d0942dca7a2486f5cd",
			"e4d09f17e36a61321293afce41ab9e357c057ebe663f89d0942dca7a2486f5cd"},
		{"closed", Config{Mode: ClosedLoop, Users: 300, ThinkTime: 0.5, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}, base, "129bdcee78d566f8fd16d99d2ed11c7675eb823eea536aebef9fafff33b6d968",
			"6b3e1e36a7e10b9099925c87b0001f750e4f3cf90db1f77f478cc1959117a1c2"},
	}
	for _, tc := range cases {
		m, err := Run(tc.cfg, tc.sys, 2006)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := metricsDigest(m), archDigest(t, tc.want, tc.want386); got != want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, want)
		}
	}
}

// refHeap is the container/heap queue the event heap replaced, ordering
// events by float time and then by seq.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	ti, tj := math.Float64frombits(h[i].time), math.Float64frombits(h[j].time)
	if ti != tj {
		return ti < tj
	}
	return h[i].tag>>32 < h[j].tag>>32
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives eventHeap and container/heap
// through the same random pushes and pops, with times drawn from a few
// values so that ties fall to seq, and requires the same event out of
// every pop and the same event in every slot after every operation.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var got eventHeap
	var want refHeap
	var seq uint64
	for op := 0; op < 200_000; op++ {
		if len(got) > 0 && r.Intn(5) < 2+len(got)/200 {
			if g, w := got.pop(), heap.Pop(&want).(event); g != w {
				t.Fatalf("op %d: pop %+v, container/heap pops %+v", op, g, w)
			}
		} else {
			seq++
			at := float64(r.Intn(64)) * 0.25
			e := event{tag: seq<<32 | uint64(r.Intn(1<<30))<<2 | uint64(r.Intn(3)), time: math.Float64bits(at)}
			got.push(e)
			heap.Push(&want, e)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %d: slot %d holds %+v, container/heap holds %+v", op, i, got[i], want[i])
			}
		}
	}
}

// TestCensoredRequestsInOneSlot backs censoredOf's sum without a dedupe:
// at the end of a censoring (QueueCap 0) run, every request index left in
// the event heap or a pool queue appears there once.
func TestCensoredRequestsInOneSlot(t *testing.T) {
	sys := DefaultSystemParams()
	sys.WarmupTime, sys.MeasureTime = 1, 4
	sys.QueueCap = 0
	cfg := Config{InjectionRate: 640, MfgThreads: 8, WebThreads: 8, DefaultThreads: 2}
	sim, err := NewSimulator(cfg, sys, rng.New(2006))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]string{}
	note := func(ri int32, where string) {
		if prev, ok := seen[ri]; ok {
			t.Fatalf("request %d is in %s and in %s", ri, prev, where)
		}
		seen[ri] = where
	}
	for i, e := range sim.events {
		if e.kind() != evArrival {
			note(e.req(), fmt.Sprintf("heap slot %d", i))
		}
	}
	for p := range sim.pools {
		q := &sim.pools[p]
		for i, ri := range q.queue[q.head:] {
			note(ri, fmt.Sprintf("%v queue slot %d", Pool(p), i))
		}
	}
	var censored int
	for _, n := range m.Censored {
		censored += n
	}
	if censored == 0 || len(seen) < censored {
		t.Fatalf("%d requests left in flight, %d censored: want some censored, all of them in flight", len(seen), censored)
	}
}

// TestRejectionMatchesMMCKBlocking validates the simulator's admission
// control against the M/M/c/K oracle: with every transaction's first stage
// on a starved web pool (and the other pools effectively unbounded), the
// measured rejection fraction must match the analytic blocking
// probability of an M/M/c/K system with the pool's aggregate service rate.
func TestRejectionMatchesMMCKBlocking(t *testing.T) {
	sys := testParams()
	sys.ThreadOverhead = 0
	sys.CPUVariation = 1
	sys.DBVariation = 1
	sys.MeasureTime = 60

	cfg := Config{InjectionRate: 560, MfgThreads: 64, WebThreads: 6, DefaultThreads: 64}
	m, err := Run(cfg, sys, 99)
	if err != nil {
		t.Fatal(err)
	}

	// Aggregate mean holding time of the web pool's first-stage visits.
	profs := classProfiles
	var hold float64
	for _, p := range profs {
		st := p.stages[0]
		if st.pool != WebPool {
			t.Fatal("test assumes all classes enter through the web pool")
		}
		hold += p.mix * (st.cpuMean + st.dbMean)
	}
	wantBlock := mmck{
		lambda: cfg.InjectionRate,
		mu:     1 / hold,
		c:      cfg.WebThreads,
		k:      cfg.WebThreads + sys.QueueCap,
	}.blocking()

	var rejected int
	for c := 0; c < NumClasses; c++ {
		rejected += m.Rejected[c]
	}
	measured := float64(rejected) / (m.OfferedTPS * sys.MeasureTime)
	if math.Abs(measured-wantBlock)/wantBlock > 0.12 {
		t.Fatalf("rejection fraction %.3f, M/M/c/K blocking %.3f (>12%% apart)", measured, wantBlock)
	}
	// Accepted throughput cannot exceed the pool's service capacity.
	accepted := m.OfferedTPS * (1 - measured)
	capacity := float64(cfg.WebThreads) / hold
	if accepted > capacity*1.05 {
		t.Fatalf("accepted rate %v exceeds web capacity %v", accepted, capacity)
	}
}

func TestSampleCollectionAndPercentiles(t *testing.T) {
	sys := testParams()
	sys.CollectSamples = true
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 18, DefaultThreads: 8}
	m, err := Run(cfg, sys, 31)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		if len(m.Samples[c]) != m.Completed[c] {
			t.Fatalf("%v: %d samples vs %d completions", Class(c), len(m.Samples[c]), m.Completed[c])
		}
		p, err := m.Percentiles(Class(c))
		if err != nil {
			t.Fatal(err)
		}
		if !(p.P50 <= p.P95 && p.P95 <= p.P99) {
			t.Fatalf("%v percentiles out of order: %+v", Class(c), p)
		}
		// The median of a right-skewed queueing distribution sits below
		// the mean; allow equality tolerance.
		if p.P50 > m.ResponseTimes[c]*1.2 {
			t.Fatalf("%v: P50 %v far above mean %v", Class(c), p.P50, m.ResponseTimes[c])
		}
		ci, err := m.ResponseCI(Class(c), 20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.ResponseTimes[c]-ci.Mean) > ci.HalfWidth {
			// The CI is over completions only while the mean includes
			// censored transactions; at this load they coincide.
			t.Fatalf("%v: CI %v±%v misses the mean %v", Class(c), ci.Mean, ci.HalfWidth, m.ResponseTimes[c])
		}
	}
}

func TestSamplesOffByDefault(t *testing.T) {
	cfg := Config{InjectionRate: 300, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 32)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		if m.Samples[c] != nil {
			t.Fatal("samples collected without CollectSamples")
		}
	}
	if _, err := m.Percentiles(Manufacturing); err == nil {
		t.Fatal("Percentiles should fail without samples")
	}
	if _, err := m.ResponseCI(Manufacturing, 10); err == nil {
		t.Fatal("ResponseCI should fail without samples")
	}
}

// TestReplicateMeansWithinCI: independent-seed replications of the same
// configuration should mostly fall inside one run's batch-means CI —
// evidence the CI is calibrated for the simulator's autocorrelation.
func TestReplicateMeansWithinCI(t *testing.T) {
	sys := testParams()
	sys.CollectSamples = true
	sys.MeasureTime = 40
	cfg := Config{InjectionRate: 400, MfgThreads: 16, WebThreads: 20, DefaultThreads: 10}
	base, err := Run(cfg, sys, 33)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := base.ResponseCI(DealerBrowse, 20)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const reps = 10
	for r := 0; r < reps; r++ {
		m, err := Run(cfg, sys, 100+uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.ResponseTimes[DealerBrowse]-ci.Mean) <= ci.HalfWidth {
			hits++
		}
	}
	if hits < reps/2 {
		t.Fatalf("only %d/%d replicate means fell inside the CI (%v±%v)", hits, reps, ci.Mean, ci.HalfWidth)
	}
}

func TestBreakdownSumsToResponseTime(t *testing.T) {
	cfg := Config{InjectionRate: 450, MfgThreads: 16, WebThreads: 16, DefaultThreads: 8}
	m, err := Run(cfg, testParams(), 41)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		var sum float64
		for p := 0; p < NumPools; p++ {
			if m.MeanPoolWait[c][p] < 0 || m.MeanPoolService[c][p] < 0 {
				t.Fatalf("%v/%v: negative breakdown", Class(c), Pool(p))
			}
			sum += m.MeanPoolWait[c][p] + m.MeanPoolService[c][p]
		}
		// Censored transactions contribute to ResponseTimes but not the
		// breakdown, so allow a modest residue.
		if math.Abs(sum-m.ResponseTimes[c])/m.ResponseTimes[c] > 0.10 {
			t.Fatalf("%v: breakdown %v vs response time %v", Class(c), sum, m.ResponseTimes[c])
		}
	}
}

func TestBreakdownLocatesBottleneck(t *testing.T) {
	// Starve the web pool: every class's dominant wait must be there.
	cfg := Config{InjectionRate: 560, MfgThreads: 32, WebThreads: 8, DefaultThreads: 32}
	m, err := Run(cfg, testParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < NumClasses; c++ {
		if m.Completed[c] == 0 {
			continue
		}
		if got := m.Bottleneck(Class(c)); got != WebPool {
			t.Fatalf("%v: bottleneck %v, want web (waits: %v)", Class(c), got, m.MeanPoolWait[c])
		}
	}
	// Flip it: starve default; dealer classes must move there, while
	// manufacturing (whose default-pool use is nil) must not.
	cfg2 := Config{InjectionRate: 560, MfgThreads: 32, WebThreads: 32, DefaultThreads: 3}
	m2, err := Run(cfg2, testParams(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Bottleneck(DealerPurchase); got != DefaultPool {
		t.Fatalf("purchase bottleneck %v, want default (waits: %v)", got, m2.MeanPoolWait[DealerPurchase])
	}
	if got := m2.Bottleneck(Manufacturing); got == DefaultPool {
		t.Fatal("manufacturing should not bottleneck on the default pool")
	}
}

func TestBreakdownServiceMatchesDemandAtLowLoad(t *testing.T) {
	cfg := Config{InjectionRate: 20, MfgThreads: 16, WebThreads: 16, DefaultThreads: 16}
	sys := testParams()
	m, err := Run(cfg, sys, 44)
	if err != nil {
		t.Fatal(err)
	}
	stretch := 1 + sys.ThreadOverhead*48
	for c, prof := range classProfiles {
		perPool := map[Pool]float64{}
		for _, st := range prof.stages {
			perPool[st.pool] += (st.cpuMean + st.dbMean) * stretch
		}
		for p := 0; p < NumPools; p++ {
			want := perPool[Pool(p)]
			got := m.MeanPoolService[c][p]
			if want == 0 {
				if got != 0 {
					t.Fatalf("%v/%v: unexpected service time %v", Class(c), Pool(p), got)
				}
				continue
			}
			if math.Abs(got-want)/want > 0.20 {
				t.Fatalf("%v/%v: service %v, want ~%v", Class(c), Pool(p), got, want)
			}
		}
	}
}
