package obs

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"nnwc/internal/obs/obstest"
)

// collectSink buffers events in memory for assertions.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}
func (c *collectSink) Close() error { return nil }

func TestEventRendering(t *testing.T) {
	e := Event{
		Name: "epoch",
		Fields: []Field{
			Int("epoch", 3),
			Float("train_loss", 0.25),
			String("mode", "batch"),
		},
	}
	got := string(e.appendJSON(nil))
	want := `{"ev":"epoch","epoch":3,"train_loss":0.25,"mode":"batch"}`
	if got != want {
		t.Fatalf("rendered %s, want %s", got, want)
	}
}

func TestEventRenderingTimestamp(t *testing.T) {
	ts := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	e := Event{Time: ts, Name: "x"}
	got := string(e.appendJSON(nil))
	want := `{"t":"2026-08-05T12:00:00Z","ev":"x"}`
	if got != want {
		t.Fatalf("rendered %s, want %s", got, want)
	}
}

func TestEventRenderingNonFinite(t *testing.T) {
	e := Event{Name: "x", Fields: []Field{
		Float("nan", math.NaN()),
		Float("posinf", math.Inf(1)),
		Float("neginf", math.Inf(-1)),
	}}
	got := string(e.appendJSON(nil))
	want := `{"ev":"x","nan":null,"posinf":null,"neginf":null}`
	if got != want {
		t.Fatalf("rendered %s, want %s", got, want)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Emit("x", Int("a", 1)) // must not panic

	fork := tr.Fork(4)
	if fork != nil {
		t.Fatal("Fork on nil trace should return nil")
	}
	slot := fork.Slot(2)
	if slot.Enabled() {
		t.Fatal("slot of a nil fork reports enabled")
	}
	slot.Emit("y")
	fork.Join()

	span := tr.StartSpan("scope", 0, 0)
	span.End() // must not panic

	tr.StartTimer().Emit("z", Int("a", 1)) // must not panic
}

func TestWriterSinkLines(t *testing.T) {
	var buf bytes.Buffer
	tr := newTraceNoTime(NewWriterSink(&buf))
	if !tr.Enabled() {
		t.Fatal("trace with sink should be enabled")
	}
	tr.Emit("a", Int("i", 1))
	tr.Emit("b", Float("f", 2.5))
	want := `{"ev":"a","i":1}` + "\n" + `{"ev":"b","f":2.5}` + "\n"
	if buf.String() != want {
		t.Fatalf("sink wrote %q, want %q", buf.String(), want)
	}
}

func TestForkReplaysInSlotOrder(t *testing.T) {
	sink := &collectSink{}
	tr := newTraceNoTime(sink)
	const n = 8
	fork := tr.Fork(n)
	var wg sync.WaitGroup
	// Start goroutines in reverse order to make scheduling-ordered output
	// unlikely to coincide with slot order by accident.
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slot := fork.Slot(i)
			slot.Emit("task", Int("i", i))
			slot.Emit("done", Int("i", i))
		}(i)
	}
	wg.Wait()
	fork.Join()
	if len(sink.events) != 2*n {
		t.Fatalf("got %d events, want %d", len(sink.events), 2*n)
	}
	for i := 0; i < n; i++ {
		for j, wantName := range []string{"task", "done"} {
			e := sink.events[2*i+j]
			if e.Name != wantName || e.Fields[0].i != int64(i) {
				t.Fatalf("event %d = %s(i=%d), want %s(i=%d)", 2*i+j, e.Name, e.Fields[0].i, wantName, i)
			}
		}
	}
}

func TestSpanEmission(t *testing.T) {
	sink := &collectSink{}
	tr := newTraceNoTime(sink)
	span := tr.StartSpan("cv-fold", 3, 1)
	span.End()
	if len(sink.events) != 1 {
		t.Fatalf("got %d events, want 1", len(sink.events))
	}
	e := sink.events[0]
	if e.Name != "span" {
		t.Fatalf("event name %q, want span", e.Name)
	}
	keys := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		keys[i] = f.Key
	}
	want := []string{"scope", "task", "worker", "ms"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("span fields %v, want %v", keys, want)
	}
	if e.Fields[0].str != "cv-fold" || e.Fields[1].i != 3 || e.Fields[2].i != 1 {
		t.Fatalf("span payload wrong: %+v", e.Fields)
	}
	if e.Fields[3].num < 0 {
		t.Fatalf("span duration negative: %g", e.Fields[3].num)
	}
}

func TestTimerEmission(t *testing.T) {
	sink := &collectSink{}
	tr := newTraceNoTime(sink)
	tr.StartTimer().Emit("threetier.collect", Int("configs", 8))
	if len(sink.events) != 1 || sink.events[0].Name != "threetier.collect" {
		t.Fatalf("got %+v, want one threetier.collect event", sink.events)
	}
	f := sink.events[0].Fields
	if len(f) != 2 || f[0].Key != "configs" || f[0].i != 8 || f[1].Key != "ms" || f[1].num < 0 {
		t.Fatalf("timer fields %+v, want configs 8 then a non-negative ms", f)
	}
}

func TestCanonicalizeStripsVolatileKeys(t *testing.T) {
	in := []byte(`{"t":"2026-08-05T12:00:00Z","ev":"span","scope":"cv-fold","task":0,"worker":3,"ms":12.5}
{"t":"2026-08-05T12:00:01Z","ev":"epoch","epoch":1,"train_loss":0.5}
`)
	got, err := obstest.CanonicalizeJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"span","scope":"cv-fold","task":0}
{"epoch":1,"ev":"epoch","train_loss":0.5}
`
	if string(got) != want {
		t.Fatalf("canonicalized to %q, want %q", got, want)
	}
}

func TestCanonicalizeStripsClusterVolatileKeys(t *testing.T) {
	in := []byte(`{"t":"2026-08-05T12:00:00Z","ev":"cluster_job","job":"crossval-20260805-120000","kind":"crossval","tasks":4,"seed":7,"fingerprint":"abc"}
{"ev":"dist_task","kind":"crossval","index":2,"worker":"host-41","lease":3,"ms":812.5}
`)
	got, err := obstest.CanonicalizeJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"cluster_job","fingerprint":"abc","kind":"crossval","seed":7,"tasks":4}
{"ev":"dist_task","index":2,"kind":"crossval"}
`
	if string(got) != want {
		t.Fatalf("canonicalized to %q, want %q", got, want)
	}
}

func TestCanonicalizeDropsVolatileEventLines(t *testing.T) {
	in := []byte(`{"ev":"cluster_job","kind":"crossval","tasks":2}
{"ev":"dist_lease","worker":"a","lo":0,"hi":2,"lease":1}
{"ev":"dist_reassign","tasks":2,"leases":1}
{"ev":"http_request","service":"dist","route":"POST /dist/lease","code":200}
{"ev":"dist_task","kind":"crossval","index":0}
`)
	got, err := obstest.CanonicalizeJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"cluster_job","kind":"crossval","tasks":2}
{"ev":"dist_task","index":0,"kind":"crossval"}
`
	if string(got) != want {
		t.Fatalf("canonicalized to %q, want %q", got, want)
	}
}

func TestCanonicalizeIgnoresTimestampDifferences(t *testing.T) {
	a := []byte(`{"t":"2026-01-01T00:00:00Z","ev":"x","v":1}` + "\n")
	b := []byte(`{"t":"2027-12-31T23:59:59Z","ev":"x","v":1}` + "\n")
	ca, err := obstest.CanonicalizeJSONL(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := obstest.CanonicalizeJSONL(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ: %q vs %q", ca, cb)
	}
}

func TestSummarizeTrace(t *testing.T) {
	trace := `{"ev":"fit_start","samples":90}
{"ev":"epoch","epoch":1,"train_loss":0.5,"val_loss":0.6}
{"ev":"epoch","epoch":2,"train_loss":0.3,"val_loss":0.4}
{"ev":"fit_end","epochs":2,"stop_reason":"max_epochs"}
{"ev":"fold","fold":0,"mean_hmre":0.031}
{"ev":"fold","fold":1,"mean_hmre":0.042}
{"ev":"span","scope":"cv-fold","task":0,"worker":0,"ms":10.5}
{"ev":"span","scope":"cv-fold","task":1,"worker":1,"ms":9.5}
`
	s, err := SummarizeTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 8 {
		t.Fatalf("Events = %d, want 8", s.Events)
	}
	if s.Epochs != 2 || s.FirstLoss != 0.5 || s.FinalLoss != 0.3 || s.FinalVal != 0.4 {
		t.Fatalf("epoch aggregates wrong: %+v", s)
	}
	if s.StopReasons["max_epochs"] != 1 {
		t.Fatalf("StopReasons = %v", s.StopReasons)
	}
	if s.FoldErrors[0] != 0.031 || s.FoldErrors[1] != 0.042 {
		t.Fatalf("FoldErrors = %v", s.FoldErrors)
	}
	sp := s.Spans["cv-fold"]
	if sp.Count != 2 || sp.TotalMS != 20 {
		t.Fatalf("Spans = %+v", s.Spans)
	}
	if names := s.SortedNames(); strings.Join(names, ",") != "epoch,fit_end,fit_start,fold,span" {
		t.Fatalf("SortedNames = %v", names)
	}
}

// failAfterWriter accepts the first ok writes, then fails every one.
type failAfterWriter struct {
	ok  int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, w.err
	}
	w.ok--
	return len(p), nil
}

// TestWriterSinkCloseSurfacesWriteError pins the fix for silently
// truncated traces: Emit cannot fail its caller, so the first write
// error must be recorded and surfaced by Close instead of dropped.
func TestWriterSinkCloseSurfacesWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	sink := NewWriterSink(&failAfterWriter{ok: 1, err: wantErr})
	tr := newTraceNoTime(sink)
	tr.Emit("a", Int("i", 1)) // succeeds
	tr.Emit("b", Int("i", 2)) // fails; recorded for Close
	tr.Emit("c", Int("i", 3)) // later failures must not mask the first
	if err := sink.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want the first write error %v", err, wantErr)
	}

	clean := NewWriterSink(&bytes.Buffer{})
	newTraceNoTime(clean).Emit("a", Int("i", 1))
	if err := clean.Close(); err != nil {
		t.Fatalf("clean sink Close() = %v, want nil", err)
	}
}

// newTraceNoTime returns a trace whose events carry no timestamp, so its
// output is byte-exact without canonicalization.
func newTraceNoTime(sink Sink) *Trace {
	return &Trace{sink: sink, now: func() time.Time { return time.Time{} }}
}
