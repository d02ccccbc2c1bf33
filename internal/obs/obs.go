// Package obs is the run-telemetry layer: structured JSONL traces of
// training and experiment runs, spans over the deterministic scheduler's
// fan-outs, run manifests (provenance), and the debug/profiling HTTP
// endpoint long-running commands expose behind -pprof-addr.
//
// Two constraints shape the design. First, telemetry must never perturb
// the results: no RNG is consumed, no floating-point reduction is
// reordered, and events produced inside parallel regions are buffered per
// task index (Fork/Slot/Join) and flushed in task order, so a trace is
// deterministic for a fixed seed regardless of worker count or scheduling.
// Second, the disabled path must cost nothing on hot loops: a nil *Trace
// is a valid, fully inert handle, and every call site guards emission with
// Trace.Enabled() so no argument is even evaluated when tracing is off.
//
// Wall-clock artifacts (timestamps, durations, worker attribution, job
// IDs, peer addresses, lease IDs) are confined to the well-known volatile
// keys "t", "ms", "worker", "job", "addr" and "lease", and purely
// scheduling-narrative event types (lease grants, reassignments, HTTP
// request logs) to a known set; obstest.CanonicalizeJSONL strips exactly
// those, and the remainder of a trace is byte-identical across
// runs — including the coordinator-merged cluster traces of the dist
// plane, at any worker count.
package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// fieldKind discriminates the payload of a Field.
type fieldKind uint8

const (
	kindString fieldKind = iota
	kindFloat
	kindInt
)

// Field is one ordered key/value pair of an Event. Construct with String,
// Float or Int; field order is preserved in the rendered JSON so traces
// are byte-stable.
type Field struct {
	Key  string
	kind fieldKind
	str  string
	num  float64
	i    int64
}

// String returns a string-valued field.
func String(key, v string) Field { return Field{Key: key, kind: kindString, str: v} }

// Float returns a float-valued field. Non-finite values render as null
// (JSON has no NaN/Inf).
func Float(key string, v float64) Field { return Field{Key: key, kind: kindFloat, num: v} }

// Int returns an integer-valued field.
func Int(key string, v int) Field { return Field{Key: key, kind: kindInt, i: int64(v)} }

// Event is one trace record: a name, an optional timestamp, and ordered
// fields. It renders as a single JSON line.
type Event struct {
	Time   time.Time
	Name   string
	Fields []Field
}

// appendJSON renders e as one JSON object (no trailing newline) onto b.
func (e *Event) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if !e.Time.IsZero() {
		b = append(b, `"t":`...)
		b = strconv.AppendQuote(b, e.Time.UTC().Format(time.RFC3339Nano))
		b = append(b, ',')
	}
	b = append(b, `"ev":`...)
	b = strconv.AppendQuote(b, e.Name)
	for _, f := range e.Fields {
		b = append(b, ',')
		b = strconv.AppendQuote(b, f.Key)
		b = append(b, ':')
		switch f.kind {
		case kindString:
			b = strconv.AppendQuote(b, f.str)
		case kindInt:
			b = strconv.AppendInt(b, f.i, 10)
		case kindFloat:
			if math.IsNaN(f.num) || math.IsInf(f.num, 0) {
				b = append(b, `null`...)
			} else {
				b = strconv.AppendFloat(b, f.num, 'g', -1, 64)
			}
		}
	}
	return append(b, '}')
}

// Sink receives rendered events. Implementations must be safe for
// concurrent Emit calls unless documented otherwise.
type Sink interface {
	Emit(e Event)
	Close() error
}

// WriterSink renders events as JSONL onto an io.Writer under a mutex,
// reusing one scratch buffer across events.
type WriterSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error // first write failure, surfaced by Close
}

// NewWriterSink returns a sink writing JSON lines to w.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// Emit renders and writes one event line. Emit has no error return (a
// trace span should never fail its caller), so the first write failure
// is recorded and surfaced by Close — a silently truncated trace must
// not pass for a complete one.
func (s *WriterSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = e.appendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil && s.err == nil {
		s.err = err
	}
}

// Close flushes nothing (the writer's owner closes it) but reports the
// first Emit write failure, so owners learn about a truncated stream.
func (s *WriterSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Trace is a run's event stream. The nil Trace is valid and inert — every
// method on it is a no-op — so call sites thread a *Trace unconditionally
// and pay one nil check when tracing is off. Guard any field construction
// with Enabled() to keep disabled paths allocation-free.
type Trace struct {
	sink Sink
	now  func() time.Time
}

// NewTrace returns a trace emitting timestamped events into sink.
func NewTrace(sink Sink) *Trace { return &Trace{sink: sink, now: time.Now} }

// Enabled reports whether events emitted on t go anywhere.
func (t *Trace) Enabled() bool { return t != nil && t.sink != nil }

// Emit records one event. No-op on a nil or sink-less trace, but prefer
// guarding with Enabled() at call sites: the variadic slice is otherwise
// still materialized.
func (t *Trace) Emit(name string, fields ...Field) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Time: t.now(), Name: name, Fields: fields})
}

// slotBuffer is the single-goroutine event buffer behind one Fork slot.
type slotBuffer struct {
	events []Event
}

func (s *slotBuffer) Emit(e Event) { s.events = append(s.events, e) }
func (s *slotBuffer) Close() error { return nil }

// Fork opens a deterministic parallel region with n ordered slots: each
// concurrent task writes its events into its own slot (Slot(i)), and Join
// flushes the slots to the parent in ascending index order. The event
// stream therefore does not depend on scheduling or worker count — the
// same order-replay trick the numeric reductions use. A nil receiver
// returns a nil Fork whose methods are no-ops.
func (t *Trace) Fork(n int) *Fork {
	if !t.Enabled() {
		return nil
	}
	return &Fork{parent: t, slots: make([]slotBuffer, n)}
}

// Fork is an in-flight parallel trace region; see Trace.Fork.
type Fork struct {
	parent *Trace
	slots  []slotBuffer
}

// Slot returns the trace for task i. Each slot must be used by one
// goroutine at a time (the task that owns index i).
func (f *Fork) Slot(i int) *Trace {
	if f == nil {
		return nil
	}
	return &Trace{sink: &f.slots[i], now: f.parent.now}
}

// Join flushes every slot's buffered events to the parent trace in slot
// order. Call after the parallel region completes.
func (f *Fork) Join() {
	if f == nil {
		return
	}
	for i := range f.slots {
		for _, e := range f.slots[i].events {
			f.parent.sink.Emit(e)
		}
		f.slots[i].events = nil
	}
}

// Timer measures one region for the event that reports it. Obtain with
// StartTimer, finish with Emit. The zero Timer is inert.
type Timer struct {
	tr    *Trace
	start time.Time
}

// StartTimer starts timing a region. On a disabled trace it returns an
// inert Timer and reads no clock.
func (t *Trace) StartTimer() Timer {
	if !t.Enabled() {
		return Timer{}
	}
	return Timer{tr: t, start: time.Now()}
}

// Emit records the event with fields and then the region's wall time under
// the volatile "ms" key, which obstest.CanonicalizeJSONL strips.
func (tm Timer) Emit(name string, fields ...Field) {
	if tm.tr != nil {
		tm.tr.Emit(name, append(fields, Float("ms", float64(time.Since(tm.start))/float64(time.Millisecond)))...)
	}
}

// Span measures one scheduled task: wall time plus worker attribution.
// Obtain with StartSpan, finish with End. The zero Span is inert.
type Span struct {
	timer  Timer
	scope  string
	task   int
	worker int
}

// StartSpan starts timing task `task` of the named scope, executed by
// `worker`. On a disabled trace it returns an inert span and reads no
// clock.
func (t *Trace) StartSpan(scope string, task, worker int) Span {
	return Span{timer: t.StartTimer(), scope: scope, task: task, worker: worker}
}

// End emits the span event: {"ev":"span","scope":...,"task":...,
// "worker":...,"ms":...}. "ms" and "worker" are volatile keys stripped by
// obstest.CanonicalizeJSONL.
func (s Span) End() {
	if s.timer.tr != nil {
		s.timer.Emit("span", String("scope", s.scope), Int("task", s.task), Int("worker", s.worker))
	}
}
