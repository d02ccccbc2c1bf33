package dist

import (
	"bytes"
	"strings"

	"nnwc/internal/obs"
)

// ClusterTraceFileName is the merged cluster trace's conventional name
// inside a run directory (`-trace` runs default their coordinator's
// cluster trace here; `nnwc runs timeline` looks for it).
const ClusterTraceFileName = "cluster-trace.jsonl"

// clusterRecorder accumulates the material of the merged cluster trace
// while a job runs: the coordinator-side ops narrative (lease grants and
// reassignments — wall-clock events, dropped wholesale by
// canonicalization) and each task's worker-shipped event block. All
// mutation happens under the coordinator's mu.
//
// The written trace has a fixed deterministic skeleton:
//
//	cluster_job header → ops narrative → task blocks in index order → cluster_done
//
// Worker attribution, wall times, lease IDs and the job ID live only in
// the obs volatile keys, and the ops events are obs volatile event
// types, so obstest.CanonicalizeJSONL reduces the trace to the same bytes at
// any worker count and under any lease interleaving — the property the
// multi-process determinism tests pin.
type clusterRecorder struct {
	ops        bytes.Buffer
	tr         *obs.Trace
	taskEvents []string
}

func newClusterRecorder(numTasks int) *clusterRecorder {
	r := &clusterRecorder{taskEvents: make([]string, numTasks)}
	r.tr = obs.NewTrace(obs.NewWriterSink(&r.ops))
	return r
}

// leaseGranted records one lease grant in the ops narrative.
func (r *clusterRecorder) leaseGranted(worker string, lo, hi int, leaseID uint64) {
	r.tr.Emit("dist_lease",
		obs.String("worker", worker),
		obs.Int("lo", lo),
		obs.Int("hi", hi),
		obs.Int("lease", int(leaseID)))
}

// reassigned records one expiry sweep that requeued tasks.
func (r *clusterRecorder) reassigned(tasks, leases int) {
	r.tr.Emit("dist_reassign",
		obs.Int("tasks", tasks),
		obs.Int("leases", leases))
}

// taskResolved stores a task's worker-shipped event block. First write
// wins, same as the result store: a late duplicate from a reclaimed
// lease carries byte-identical deterministic content anyway.
func (r *clusterRecorder) taskResolved(index int, events string) {
	r.taskEvents[index] = events
}

// write renders the merged trace to path atomically (temp + rename, so a
// crash mid-write never leaves a torn trace next to a manifest).
func (r *clusterRecorder) write(path string, spec Spec, fingerprint string, failed int) error {
	var out bytes.Buffer
	head := obs.NewTrace(obs.NewWriterSink(&out))
	head.Emit("cluster_job",
		obs.String("job", spec.JobID),
		obs.String("kind", spec.Kind),
		obs.Int("tasks", spec.NumTasks),
		obs.Int("seed", int(spec.Seed)),
		obs.String("fingerprint", fingerprint))
	out.Write(r.ops.Bytes())
	for _, ev := range r.taskEvents {
		if ev == "" {
			continue
		}
		out.WriteString(ev)
		if !strings.HasSuffix(ev, "\n") {
			out.WriteByte('\n')
		}
	}
	head.Emit("cluster_done",
		obs.Int("tasks", spec.NumTasks),
		obs.Int("failed", failed))
	return writeFileAtomic(path, out.Bytes())
}
