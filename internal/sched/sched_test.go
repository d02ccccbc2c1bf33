package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"nnwc/internal/obs"
	"nnwc/internal/obs/obstest"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("explicit request: got %d", got)
	}
	SetWorkers(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("GOMAXPROCS default: got %d", got)
	}
	SetWorkers(5)
	defer SetWorkers(0)
	if got := Workers(0); got != 5 {
		t.Fatalf("process default: got %d", got)
	}
	if got := Workers(2); got != 2 {
		t.Fatalf("explicit beats default: got %d", got)
	}
	SetWorkers(-3)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative resets to GOMAXPROCS: got %d", got)
	}
}

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		var counts [n]int64
		_, err := Map(context.Background(), workers, "t", n, func(_ context.Context, i int) (struct{}, error) {
			atomic.AddInt64(&counts[i], 1)
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	e3 := errors.New("task 3")
	e9 := errors.New("task 9")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, "t", 12, func(_ context.Context, i int) (int, error) {
			switch i {
			case 9:
				return 0, e9
			case 3:
				return 0, e3
			}
			return i, nil
		})
		if err != e3 {
			t.Fatalf("workers=%d: got %v, want lowest-index error", workers, err)
		}
	}
}

func TestForEachRunsAllTasksDespiteError(t *testing.T) {
	var ran int64
	_, err := Map(context.Background(), 4, "t", 20, func(_ context.Context, i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran != 20 {
		t.Fatalf("only %d/20 tasks ran", ran)
	}
}

func TestMapOrdersResultsByTaskIndex(t *testing.T) {
	for _, workers := range []int{1, 7} {
		got, err := Map(context.Background(), workers, "t", 40, func(_ context.Context, i int) (string, error) {
			return fmt.Sprintf("r%d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != fmt.Sprintf("r%d", i) {
				t.Fatalf("workers=%d: slot %d holds %q", workers, i, v)
			}
		}
	}
}

func TestMapErrorDropsResults(t *testing.T) {
	got, err := Map(context.Background(), 2, "t", 5, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || got != nil {
		t.Fatalf("want (nil, error), got (%v, %v)", got, err)
	}
}

// mixTask is a task-index-derived stream, like the real call sites.
func mixTask(i int) uint64 {
	s := TaskSeed(42, i)
	s ^= s >> 31
	return s * 0x9e3779b97f4a7c15
}

func TestMapIdenticalAcrossWorkerCounts(t *testing.T) {
	compute := func(workers int) []uint64 {
		out, err := Map(context.Background(), workers, "t", 64, func(ctx context.Context, i int) (uint64, error) {
			if obs.TraceFromContext(ctx) != nil {
				t.Error("an untraced context gained a trace")
			}
			return mixTask(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := compute(1)
	for _, workers := range []int{2, 8} {
		got := compute(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d differs", workers, i)
			}
		}
	}
}

// TestMapTracesEachTaskInItsSpan pins Map's trace contract: whatever the
// worker count, task i's events land inside its own scope span, the spans
// follow in index order, and the canonical trace is the same bytes.
func TestMapTracesEachTaskInItsSpan(t *testing.T) {
	const n = 23
	run := func(workers int) ([]uint64, []byte) {
		var buf bytes.Buffer
		ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace(obs.NewWriterSink(&buf)))
		out, err := Map(ctx, workers, "unit", n, func(ctx context.Context, i int) (uint64, error) {
			tr := obs.TraceFromContext(ctx)
			for step := 0; step < i%3+1; step++ {
				tr.Emit("step", obs.Int("i", i), obs.Int("step", step))
			}
			return mixTask(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		canon, err := obstest.CanonicalizeJSONL(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return out, canon
	}
	refOut, refTrace := run(1)
	var want bytes.Buffer
	for i := 0; i < n; i++ {
		for step := 0; step < i%3+1; step++ {
			fmt.Fprintf(&want, "{\"ev\":\"step\",\"i\":%d,\"step\":%d}\n", i, step)
		}
		fmt.Fprintf(&want, "{\"ev\":\"span\",\"scope\":\"unit\",\"task\":%d}\n", i)
	}
	if !bytes.Equal(refTrace, want.Bytes()) {
		t.Fatalf("workers=1 trace:\n%s\nwant:\n%s", refTrace, want.Bytes())
	}
	for _, workers := range []int{2, 8} {
		out, trace := run(workers)
		if !slices.Equal(out, refOut) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
		if !bytes.Equal(trace, refTrace) {
			t.Fatalf("workers=%d: trace differs from workers=1:\n%s", workers, trace)
		}
	}
}

func TestSeedDerivation(t *testing.T) {
	if FoldSeed(7, 0) != 7 || TaskSeed(7, 0) != 7 {
		t.Fatal("index 0 must return the base seed unchanged")
	}
	// Pinned against the pre-scheduler inline derivations so the
	// migration keeps every historical stream.
	if got, want := FoldSeed(7, 3), uint64(7)+3*0x9e3779b9; got != want {
		t.Fatalf("FoldSeed: got %d want %d", got, want)
	}
	stride := uint64(0x9e3779b97f4a7c15)
	if got, want := TaskSeed(7, 3), uint64(7)+3*stride; got != want {
		t.Fatalf("TaskSeed: got %d want %d", got, want)
	}
}

func TestPoolReusesValues(t *testing.T) {
	type scratch struct{ buf []float64 }
	var allocs int64
	p := NewPool(func() *scratch {
		atomic.AddInt64(&allocs, 1)
		return &scratch{}
	})
	s := p.Get()
	s.buf = make([]float64, 100)
	p.Put(s)
	runtime.GC() // a sync.Pool may drop its items here; the free list keeps them
	s2 := p.Get()
	if s2 != s {
		t.Fatal("pool dropped a kept value")
	}
	if len(s2.buf) != 100 {
		t.Fatal("pooled scratch lost its buffer")
	}
}

// TestPoolIsBounded pins the free list's size: it keeps 2×GOMAXPROCS
// values and drops the rest, so a burst of Puts cannot grow it.
func TestPoolIsBounded(t *testing.T) {
	var allocs int64
	p := NewPool(func() *int {
		atomic.AddInt64(&allocs, 1)
		return new(int)
	})
	n := 2*runtime.GOMAXPROCS(0) + 3
	held := make([]*int, n)
	for i := range held {
		held[i] = p.Get()
	}
	for _, v := range held {
		p.Put(v)
	}
	for i := range held {
		held[i] = p.Get()
	}
	if got, want := atomic.LoadInt64(&allocs), int64(n+3); got != want {
		t.Fatalf("%d values built, want %d: the list must keep exactly 2×GOMAXPROCS", got, want)
	}
}
