package dist

import "nnwc/internal/obs/metrics"

// Dist counters live on the shared obs registry so `-pprof-addr`'s
// /metrics endpoint (and anything else scraping metrics.Default())
// exposes them alongside the sched/train/serve series.
var (
	leasesTotal = metrics.Default().Counter("nnwc_dist_leases_total",
		"work leases granted by the coordinator")
	reassignedTotal = metrics.Default().Counter("nnwc_dist_reassigned_tasks_total",
		"tasks reclaimed from expired leases and requeued")
	duplicatesTotal = metrics.Default().Counter("nnwc_dist_duplicate_results_total",
		"duplicate result deliveries dropped by the idempotent index-addressed store")
	resumedTotal = metrics.Default().Counter("nnwc_dist_resumed_tasks_total",
		"tasks skipped at coordinator startup because the state journal already held their results")
	resultsTotal = metrics.Default().CounterVec("nnwc_dist_results_total",
		"results accepted by the coordinator, by reporting worker", "worker")
	workerTasksTotal = metrics.Default().Counter("nnwc_dist_worker_tasks_total",
		"tasks executed by this process's dist workers")
)

// Metric roles a worker's lease-renewal snapshot push may carry. The
// names are the federation contract between Worker.metricSnapshots and
// absorbWorkerMetrics; unknown roles are ignored, so mixed-version
// clusters degrade to partial federation instead of erroring.
const (
	MetricTaskMS     = "task_ms"
	MetricArtifactMS = "artifact_ms"
)

// Federated series: per-worker histograms replaced wholesale by each
// worker's cumulative snapshot push, plus render-time cluster-wide
// merges. Histograms because bucket counts add across processes — see
// metrics.Histogram.
var (
	fedTaskMS = metrics.Default().HistogramVec("nnwc_dist_worker_task_ms_hist",
		"worker-pushed task wall-time histograms (ms), federated by the coordinator",
		metrics.MillisBuckets, "worker")
	fedArtifactMS = metrics.Default().HistogramVec("nnwc_dist_worker_artifact_ms_hist",
		"worker-pushed artifact fetch wall-time histograms (ms), federated by the coordinator",
		metrics.MillisBuckets, "worker")
	_ = metrics.Default().HistogramFunc("nnwc_cluster_task_ms_hist",
		"cluster-wide task wall-time histogram (ms): every worker's pushed snapshot, merged",
		func() metrics.HistogramSnapshot { return fedTaskMS.Merged() })
	_ = metrics.Default().HistogramFunc("nnwc_cluster_artifact_ms_hist",
		"cluster-wide artifact fetch wall-time histogram (ms): every worker's pushed snapshot, merged",
		func() metrics.HistogramSnapshot { return fedArtifactMS.Merged() })
)

// absorbWorkerMetrics folds one worker's snapshot push into the
// federated series. A bounds mismatch (version skew across the cluster)
// drops that series rather than failing the lease — federation is
// best-effort observability, never liveness. A snapshot counting fewer
// observations than the worker's cell is older (two results of one lease
// can arrive out of order) and is dropped too.
func absorbWorkerMetrics(worker string, snaps map[string]metrics.HistogramSnapshot) {
	if worker == "" || len(snaps) == 0 {
		return
	}
	for role, snap := range snaps { // cells are keyed, not ordered: iteration order is irrelevant
		var vec *metrics.HistogramVec
		switch role {
		case MetricTaskMS:
			vec = fedTaskMS
		case MetricArtifactMS:
			vec = fedArtifactMS
		}
		if vec != nil && snap.Count >= vec.CellSnapshot(worker).Count {
			_ = vec.SetSnapshot(snap, worker)
		}
	}
}
