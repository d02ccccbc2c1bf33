package metrics

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "test counter")
	c.Inc()
	c.Add(4)
	if c.v.Load() != 5 {
		t.Fatalf("Value = %d, want 5", c.v.Load())
	}
	var b strings.Builder
	r.Write(&b)
	want := "# HELP test_total test counter\n# TYPE test_total counter\ntest_total 5\n"
	if b.String() != want {
		t.Fatalf("rendered %q, want %q", b.String(), want)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.v.Load() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.v.Load())
	}
}

func TestCounterVecSortedRendering(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "endpoint", "status")
	v.Inc("/predict", "500")
	v.Add(3, "/predict", "200")
	v.Inc("/healthz", "200")
	if counterCell(v, "/predict", "200") != 3 {
		t.Fatalf("cell = %d, want 3", counterCell(v, "/predict", "200"))
	}
	var b strings.Builder
	r.Write(&b)
	got := b.String()
	want := `# HELP req_total requests
# TYPE req_total counter
req_total{endpoint="/healthz",status="200"} 1
req_total{endpoint="/predict",status="200"} 3
req_total{endpoint="/predict",status="500"} 1
`
	if got != want {
		t.Fatalf("rendered %q, want %q", got, want)
	}
}

func TestCounterVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label arity")
		}
	}()
	v.Inc("only-one")
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	val := 2.5
	r.GaugeFunc("g", "gauge", func() float64 { return val })
	var b strings.Builder
	r.Write(&b)
	if !strings.Contains(b.String(), "g 2.5\n") {
		t.Fatalf("rendered %q", b.String())
	}
	val = 7
	b.Reset()
	r.Write(&b)
	if !strings.Contains(b.String(), "g 7\n") {
		t.Fatalf("gauge not re-read at render: %q", b.String())
	}
}

func TestRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", "")
	r.Counter("aaa", "")
	var b strings.Builder
	r.Write(&b)
	got := b.String()
	if strings.Index(got, "zzz") > strings.Index(got, "aaa") {
		t.Fatalf("metrics must render in registration order, got %q", got)
	}
}

func TestDefaultIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default registry must be process-wide")
	}
}

func TestGaugeVecSortedRendering(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("inflight", "in-flight requests", "model")
	v.Set(3, "web")
	v.Add(2, "web")
	v.Add(1, "db")
	if v.Value("web") != 5 || v.Value("db") != 1 {
		t.Fatalf("cells web=%g db=%g, want 5 and 1", v.Value("web"), v.Value("db"))
	}
	var b strings.Builder
	r.Write(&b)
	want := `# HELP inflight in-flight requests
# TYPE inflight gauge
inflight{model="db"} 1
inflight{model="web"} 5
`
	if b.String() != want {
		t.Fatalf("rendered %q, want %q", b.String(), want)
	}
}

// FuzzLabelValues renders a CounterVec cell with arbitrary label values and
// parses its line back with the text format's only three label-value
// escapes (\\, \" and \n): each value must come back unchanged, on one
// line, whatever bytes it holds.
func FuzzLabelValues(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string) {
		r := NewRegistry()
		r.CounterVec("c", "", "a", "b").Inc(a, b)
		var sb strings.Builder
		r.Write(&sb)
		lines := strings.Split(sb.String(), "\n")
		if len(lines) != 4 || lines[3] != "" {
			t.Fatalf("want HELP, TYPE and one sample line, got %q", sb.String())
		}
		got, err := parseSample(lines[2], "c", "a", "b")
		if err != nil {
			t.Fatalf("%v in %q", err, lines[2])
		}
		if got[0] != a || got[1] != b {
			t.Fatalf("parsed %q, rendered from %q", got, []string{a, b})
		}
	})
}

// parseSample reads the label values of `name{l0="v0",...} 1`.
func parseSample(line, name string, labels ...string) ([]string, error) {
	rest, ok := strings.CutPrefix(line, name+"{")
	if !ok {
		return nil, errors.New("no metric name")
	}
	var vals []string
	for i, l := range labels {
		prefix := l + `="`
		if i > 0 {
			prefix = "," + prefix
		}
		if rest, ok = strings.CutPrefix(rest, prefix); !ok {
			return nil, errors.New("want " + prefix)
		}
		var v strings.Builder
		for {
			if rest == "" {
				return nil, errors.New("unterminated value")
			}
			c := rest[0]
			rest = rest[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if rest == "" {
					return nil, errors.New("trailing backslash")
				}
				switch rest[0] {
				case '\\', '"':
					c = rest[0]
				case 'n':
					c = '\n'
				default:
					return nil, errors.New("escape outside the text format: \\" + rest[:1])
				}
				rest = rest[1:]
			}
			v.WriteByte(c)
		}
		vals = append(vals, v.String())
	}
	if rest != "} 1" {
		return nil, errors.New("want } 1 after the labels")
	}
	return vals, nil
}

// counterCell reads one cell of v.
func counterCell(v *CounterVec, values ...string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cells[v.key(values)]
}
