package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"nnwc/internal/obs/metrics"
)

// metricsRegistry is the fleet's observability surface, built on the
// shared exporter in internal/obs/metrics: request/error counters and
// latency/batch distributions at the HTTP layer, plus the per-tenant
// surface admission control is driven by — per-model request counters,
// latency histograms, in-flight gauges and shed counters — and the
// deployment-controller counters (fleet events, rolling HMRE gauges,
// shadow divergence). All methods are safe for concurrent use. The
// exposition schema is pinned by TestMetricsSchema.
type metricsRegistry struct {
	reg       *metrics.Registry
	requests  *metrics.CounterVec
	errors    *metrics.CounterVec
	latency   *metrics.Histogram
	batchSize *metrics.Histogram
	reloads   *metrics.Counter
	inflight  atomic.Int64

	tenantRequests *metrics.CounterVec
	tenantLatency  *metrics.HistogramVec
	tenantInflight *metrics.GaugeVec
	tenantShed     *metrics.CounterVec

	fleetEvents *metrics.CounterVec
	rollingHMRE *metrics.GaugeVec
	divergence  *metrics.HistogramVec
}

func newMetricsRegistry(warmModels, batchGroups, batchQueued func() float64) *metricsRegistry {
	m := &metricsRegistry{reg: metrics.NewRegistry()}
	m.requests = m.reg.CounterVec("nnwc_requests_total",
		"Requests served, by endpoint and status code.", "endpoint", "code")
	m.errors = m.reg.CounterVec("nnwc_request_errors_total",
		"Rejected or failed requests, by reason.", "reason")
	m.latency = m.reg.Histogram("nnwc_request_latency_seconds",
		"Prediction latency in seconds.", metrics.SecondsBuckets)
	m.batchSize = m.reg.Histogram("nnwc_batch_size",
		"Rows per coalesced forward call.", metrics.RowBuckets)
	m.reloads = m.reg.Counter("nnwc_model_reloads_total",
		"Live-model swaps from hot reloads since start.")
	m.reg.GaugeFunc("nnwc_inflight_requests",
		"Predict requests currently being handled.",
		func() float64 { return float64(m.inflight.Load()) })

	m.tenantRequests = m.reg.CounterVec("nnwc_tenant_requests_total",
		"Predict requests by model and status code.", "model", "code")
	m.tenantLatency = m.reg.HistogramVec("nnwc_tenant_latency_seconds",
		"Prediction latency in seconds, by model.", metrics.SecondsBuckets, "model")
	m.tenantInflight = m.reg.GaugeVec("nnwc_tenant_inflight_requests",
		"Predict requests in flight, by model.", "model")
	m.tenantShed = m.reg.CounterVec("nnwc_tenant_shed_total",
		"Requests shed by admission control, by model and reason.", "model", "reason")

	m.fleetEvents = m.reg.CounterVec("nnwc_fleet_events_total",
		"Deployment-controller actions, by model and action.", "model", "action")
	m.rollingHMRE = m.reg.GaugeVec("nnwc_fleet_rolling_hmre",
		"Rolling mean per-observation HMRE from reported actuals, by model and role.", "model", "role")
	m.divergence = m.reg.HistogramVec("nnwc_fleet_shadow_divergence",
		"Relative gap between mirrored shadow and live predictions.", metrics.DecadeBuckets, "model")

	if warmModels != nil {
		m.reg.GaugeFunc("nnwc_registry_warm_models",
			"Model instances currently loaded in the registry's LRU cache.", warmModels)
	}
	if batchGroups != nil {
		m.reg.GaugeFunc("nnwc_batch_groups",
			"Active cross-tenant coalescing domains (distinct network shapes).", batchGroups)
	}
	if batchQueued != nil {
		m.reg.GaugeFunc("nnwc_batch_queued_rows",
			"Rows waiting in the micro-batcher's queues for a forward call.", batchQueued)
	}
	return m
}

func (m *metricsRegistry) observeRequest(endpoint string, code int, seconds float64) {
	m.requests.Inc(endpoint, strconv.Itoa(code))
	if endpoint == "predict" {
		m.latency.Observe(seconds)
	}
}

// observeTenantRequest records the per-model request outcome and, for
// successes, its latency.
func (m *metricsRegistry) observeTenantRequest(tenant string, code int, seconds float64) {
	m.tenantRequests.Inc(tenant, strconv.Itoa(code))
	if code < 400 {
		m.tenantLatency.Observe(seconds, tenant)
	}
}

func (m *metricsRegistry) observeShed(tenant, reason string) {
	m.tenantShed.Inc(tenant, reason)
	m.errors.Inc(reason)
}

func (m *metricsRegistry) observeError(reason string) {
	m.errors.Inc(reason)
}

func (m *metricsRegistry) observeBatch(size int) {
	m.batchSize.Observe(float64(size))
}

func (m *metricsRegistry) observeReload() {
	m.reloads.Inc()
}

// batchStats returns (batches, rows) — used by tests and the bench driver
// to verify coalescing actually happened.
func (m *metricsRegistry) batchStats() (batches, rows uint64) {
	s := m.batchSize.Snapshot()
	return s.Count, uint64(s.Sum)
}

// modelMeta is the metadata slice of /metrics, snapshotted from the
// default tenant's live model.
type modelMeta struct {
	path       string
	loadedUnix int64
	features   int
	targets    int
}

// write renders the Prometheus text exposition format: the registry's
// metrics in registration order, then the default model's metadata.
func (m *metricsRegistry) write(w io.Writer, meta *modelMeta) {
	m.reg.Write(w)
	if meta != nil {
		fmt.Fprintln(w, "# HELP nnwc_model_loaded_timestamp_seconds Unix time the serving model was loaded.")
		fmt.Fprintln(w, "# TYPE nnwc_model_loaded_timestamp_seconds gauge")
		fmt.Fprintf(w, "nnwc_model_loaded_timestamp_seconds %d\n", meta.loadedUnix)
		fmt.Fprintln(w, "# HELP nnwc_model_info Metadata of the serving model.")
		fmt.Fprintln(w, "# TYPE nnwc_model_info gauge")
		fmt.Fprintf(w, "nnwc_model_info{path=\"%s\",features=\"%d\",targets=\"%d\"} 1\n",
			metrics.EscapeLabelValue(meta.path), meta.features, meta.targets)
	}
}
