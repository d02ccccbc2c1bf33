// Package metrics is the shared Prometheus-text metrics registry: typed
// counters, labeled counter vectors, gauges and mergeable fixed-bucket
// histograms with a deterministic exposition order, so both the
// prediction server's /metrics and the debug endpoint's training-side
// counters render through one exporter and the schema stays pin-testable.
//
// A Registry renders metrics in registration order; within a labeled
// metric, cells render sorted by label values.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metrics and renders them in registration order.
type Registry struct {
	mu   sync.Mutex
	list []renderer
}

type renderer interface {
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// defaultRegistry is the process-wide registry behind Default: library
// counters (training epochs, scheduler tasks) register here and the debug
// endpoint serves it at /metrics.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func (r *Registry) add(m renderer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.list = append(r.list, m)
}

// Write renders the Prometheus text exposition of every metric, in
// registration order.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	list := append([]renderer(nil), r.list...)
	r.mu.Unlock()
	for _, m := range list {
		m.render(w)
	}
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// Counter is a monotonically increasing uint64. Safe for concurrent use;
// Inc/Add never allocate, so counters may sit on hot loops.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.add(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

func (c *Counter) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// A cell's map key joins its label values with labelSep, after writing
// each 0 byte inside a value as labelEsc. Every 0 byte in a key then
// starts a separator or an escape, so a key splits back into exactly the
// values it was built from, whatever bytes they hold, and keys sort as
// their value tuples do.
const (
	labelSep = "\x00\x01"
	labelEsc = "\x00\xff"
)

// vec is what every labeled metric shares: its name, help and label names.
type vec struct {
	name, help string
	labels     []string
}

// key encodes one cell's label values as its map key.
func (v *vec) key(values []string) string {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	for _, s := range values {
		if strings.IndexByte(s, 0) < 0 {
			continue
		}
		esc := make([]string, len(values))
		for i, x := range values {
			esc[i] = strings.ReplaceAll(x, "\x00", labelEsc)
		}
		return strings.Join(esc, labelSep)
	}
	return strings.Join(values, labelSep)
}

// pairs renders a cell key as the exposition's name="value" list.
func (v *vec) pairs(key string) string {
	var b strings.Builder
	for i, s := range strings.Split(key, labelSep) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, v.labels[i], EscapeLabelValue(strings.ReplaceAll(s, labelEsc, "\x00")))
	}
	return b.String()
}

// labelEscaper escapes what the text exposition format escapes in a label
// value: backslash, double quote and newline, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue escapes s for the inside of a quoted label value.
func EscapeLabelValue(s string) string { return labelEscaper.Replace(s) }

// CounterVec is a counter with a fixed set of label names; each distinct
// label-value tuple is one cell. Cells render sorted by label values.
type CounterVec struct {
	vec
	mu    sync.Mutex
	cells map[string]uint64
}

// CounterVec registers and returns a labeled counter.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{vec: vec{name, help, labels}, cells: make(map[string]uint64)}
	r.add(v)
	return v
}

// Inc adds one to the cell identified by the label values.
func (v *CounterVec) Inc(values ...string) { v.Add(1, values...) }

// Add adds n to the cell identified by the label values.
func (v *CounterVec) Add(n uint64, values ...string) {
	k := v.key(values)
	v.mu.Lock()
	v.cells[k] += n
	v.mu.Unlock()
}

func (v *CounterVec) render(w io.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.cells))
	for k := range v.cells {
		keys = append(keys, k)
	}
	vals := make(map[string]uint64, len(v.cells))
	for k, n := range v.cells {
		vals[k] = n
	}
	v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, v.pairs(k), vals[k])
	}
}

// GaugeVec is a labeled gauge: each distinct label-value tuple is one cell
// holding the last Set value. Cells render sorted by label values.
type GaugeVec struct {
	vec
	mu    sync.Mutex
	cells map[string]float64
}

// GaugeVec registers and returns a labeled gauge.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{vec: vec{name, help, labels}, cells: make(map[string]float64)}
	r.add(v)
	return v
}

// Set stores the cell's current value.
func (v *GaugeVec) Set(val float64, values ...string) {
	k := v.key(values)
	v.mu.Lock()
	v.cells[k] = val
	v.mu.Unlock()
}

// Add shifts the cell's current value by delta (creating it at delta).
func (v *GaugeVec) Add(delta float64, values ...string) {
	k := v.key(values)
	v.mu.Lock()
	v.cells[k] += delta
	v.mu.Unlock()
}

// Value returns one cell's current value.
func (v *GaugeVec) Value(values ...string) float64 {
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cells[k]
}

func (v *GaugeVec) render(w io.Writer) {
	header(w, v.name, v.help, "gauge")
	v.mu.Lock()
	keys := make([]string, 0, len(v.cells))
	for k := range v.cells {
		keys = append(keys, k)
	}
	vals := make(map[string]float64, len(v.cells))
	for k, x := range v.cells {
		vals[k] = x
	}
	v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %g\n", v.name, v.pairs(k), vals[k])
	}
}

// GaugeFunc renders a single instantaneous value read from fn.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a gauge whose value is read at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.add(g)
	return g
}

func (g *GaugeFunc) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %g\n", g.name, g.fn())
}
