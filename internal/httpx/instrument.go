package httpx

import (
	"net/http"
	"strconv"
	"time"

	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
)

// Trace-propagation headers. Dist workers stamp every coordinator
// request with them; Instrument extracts them on the server side so a
// request's span carries the cluster-wide (run, worker) identity instead
// of just a TCP peer address.
const (
	// HeaderRun carries the run/job ID the request belongs to.
	HeaderRun = "X-NNWC-Run"
	// HeaderWorker carries the sending worker's ID.
	HeaderWorker = "X-NNWC-Worker"
)

// Server-side request metrics, shared by every instrumented listener
// (serve plane, dist coordinator). Labeled by service so one process
// hosting both keeps them apart.
var (
	httpRequestsTotal = metrics.Default().CounterVec(
		"nnwc_http_requests_total",
		"HTTP requests served, by service, route and status code.",
		"service", "route", "code")
	httpRequestMs = metrics.Default().HistogramVec(
		"nnwc_http_request_ms",
		"HTTP request wall time in milliseconds, by service and route.",
		metrics.MillisBuckets,
		"service", "route")
)

// InstrumentOptions parameterizes Instrument.
type InstrumentOptions struct {
	// Service labels the metrics ("serve", "dist").
	Service string
	// Trace, when enabled, receives one "http_request" event per request:
	// a server-side span carrying the route, status, latency, and the
	// propagated (run, worker) identity from the trace headers. Request
	// events are wall-clock narrative, so obstest.CanonicalizeJSONL drops them.
	Trace *obs.Trace
}

// statusRecorder captures the response status for metrics/span labels.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// Flush passes through so instrumented streaming handlers keep working.
func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// RouteUnmatched is the route label of every request that matched no
// pattern of the mux (404s, 405s), so hostile paths and methods cannot
// grow the label space.
const RouteUnmatched = "unmatched"

// Instrument wraps mux with server-side observability: per-route request
// counts and latency histograms on the process-wide registry, plus an
// optional span event per request with the trace-header identity
// extracted. A request's route label is the mux pattern it matched
// ("GET /dist/artifact/{sha}"), or RouteUnmatched. It is the one
// middleware both the serve plane and the dist coordinator mount, so
// "what is this server doing right now" reads the same way everywhere.
func Instrument(opt InstrumentOptions, mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		_, rt := mux.Handler(r)
		if rt == "" {
			rt = RouteUnmatched
		}
		mux.ServeHTTP(rec, r)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		httpRequestsTotal.Inc(opt.Service, rt, strconv.Itoa(rec.code))
		httpRequestMs.Observe(ms, opt.Service, rt)
		if opt.Trace.Enabled() {
			opt.Trace.Emit("http_request",
				obs.String("service", opt.Service),
				obs.String("route", rt),
				obs.Int("code", rec.code),
				obs.String("job", r.Header.Get(HeaderRun)),
				obs.String("worker", r.Header.Get(HeaderWorker)),
				obs.String("addr", r.RemoteAddr),
				obs.Float("ms", ms))
		}
	})
}
