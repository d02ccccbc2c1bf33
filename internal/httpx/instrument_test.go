package httpx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
)

// muxWith serves h at pattern.
func muxWith(pattern string, h http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(pattern, h)
	return mux
}

func TestInstrumentEmitsSpanWithTraceHeaders(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTrace(obs.NewWriterSink(&buf))
	h := Instrument(InstrumentOptions{Service: "test", Trace: tr},
		muxWith("POST /dist/lease", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusTeapot)
		}))
	req := httptest.NewRequest(http.MethodPost, "/dist/lease", nil)
	req.Header.Set(HeaderRun, "run-123")
	req.Header.Set(HeaderWorker, "worker-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusTeapot)
	}
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("decoding span event %q: %v", buf.String(), err)
	}
	for k, want := range map[string]any{
		"ev":      "http_request",
		"service": "test",
		"route":   "POST /dist/lease",
		"code":    float64(http.StatusTeapot),
		"job":     "run-123",
		"worker":  "worker-7",
	} {
		if ev[k] != want {
			t.Fatalf("event[%q] = %v, want %v (event: %v)", k, ev[k], want, ev)
		}
	}
	if _, ok := ev["ms"]; !ok {
		t.Fatalf("event missing latency field: %v", ev)
	}
}

func TestInstrumentDefaultStatusIsOK(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTrace(obs.NewWriterSink(&buf))
	h := Instrument(InstrumentOptions{Service: "test", Trace: tr},
		muxWith("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok")) // implicit 200, WriteHeader never called
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["code"] != float64(http.StatusOK) {
		t.Fatalf("code = %v, want 200", ev["code"])
	}
}

func TestInstrumentLabelsByPattern(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTrace(obs.NewWriterSink(&buf))
	h := Instrument(InstrumentOptions{Service: "test", Trace: tr},
		muxWith("GET /artifact/{sha}", func(w http.ResponseWriter, r *http.Request) {}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/artifact/deadbeef", nil))
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["route"] != "GET /artifact/{sha}" {
		t.Fatalf("route = %v, want the matched pattern", ev["route"])
	}
}

// Requests that match no route share one label: 500 distinct unknown
// paths and methods add one latency cell and one count cell per status.
func TestInstrumentBoundsUnmatchedRoutes(t *testing.T) {
	const service = "unmatched-test"
	h := Instrument(InstrumentOptions{Service: service},
		muxWith("POST /dist/lease", func(w http.ResponseWriter, r *http.Request) {}))
	for i := 0; i < 500; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/probe/%d", i), nil) // 404
		if i%2 == 1 {
			req = httptest.NewRequest(fmt.Sprintf("M%d", i), "/dist/lease", nil) // 405
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	var b strings.Builder
	metrics.Default().Write(&b)
	cells := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		for _, series := range []string{"nnwc_http_requests_total{", "nnwc_http_request_ms_count{"} {
			if strings.HasPrefix(line, series) && strings.Contains(line, `service="`+service+`"`) {
				cells[series]++
				if !strings.Contains(line, `route="`+RouteUnmatched+`"`) {
					t.Fatalf("unmatched request labelled by its path or method: %s", line)
				}
			}
		}
	}
	if cells["nnwc_http_requests_total{"] != 2 || cells["nnwc_http_request_ms_count{"] != 1 {
		t.Fatalf("cells = %v, want 2 counts (404, 405) and 1 latency", cells)
	}
}

func TestInstrumentNilTraceStillServes(t *testing.T) {
	h := Instrument(InstrumentOptions{Service: "test"},
		muxWith("GET /x", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("status = %d, want 204", rec.Code)
	}
}

func TestContextTraceRoundTrip(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	ctx := req.Context()
	if got := obs.TraceFromContext(ctx); got != nil {
		t.Fatalf("empty context carries a trace: %v", got)
	}
	var buf bytes.Buffer
	tr := obs.NewTrace(obs.NewWriterSink(&buf))
	ctx = obs.ContextWithTrace(ctx, tr)
	if got := obs.TraceFromContext(ctx); got != tr {
		t.Fatalf("trace did not round-trip through the context")
	}
}
