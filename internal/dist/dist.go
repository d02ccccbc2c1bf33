// Package dist is the distributed experiment plane: a coordinator/worker
// protocol over HTTP that shards index-parallel task sets (CV folds,
// compare cells, surface-grid rows, importance features, topology
// candidates) across processes and machines. It knows tasks only as a
// Spec, an index and a payload; internal/dist/jobs binds the experiment
// kinds (sched.Kind values) to it with one generic Runner.
//
// The design leans entirely on the determinism the scheduler already
// guarantees: every task is identified by its index, every task's seed
// derives purely from (base seed, index) via sched.FoldSeed/TaskSeed, and
// every floating-point reduction replays in index order. A task therefore
// computes the same bits on any worker on any machine, which reduces
// distribution to three problems this package solves:
//
//   - leasing: the coordinator partitions [0, NumTasks) into contiguous
//     index ranges (sched.Shard) and hands them out as work leases with a
//     TTL; leases a worker never completes are reclaimed and reassigned.
//   - artifacts: workers resolve datasets and trained models from the
//     coordinator by content address (hex SHA-256, the same addressing the
//     serve registry and obs manifests use) and verify the bytes.
//   - collection: results stream back index-addressed; duplicate delivery
//     (a reclaimed lease finishing late) is idempotent — the first write
//     wins, and since payloads are deterministic both writes carry the
//     same bytes anyway.
//
// Protocol (JSON over HTTP, served by the coordinator):
//
//	GET  /dist/job             → Spec (kind, seed, task count, config, artifact hashes)
//	POST /dist/lease           {"worker":id,"metrics":{...}} → {"lease_id","lo","hi"} | {"done":true} | {"retry_ms":n,"held":true}
//	POST /dist/result          {"lease_id","worker","index","payload"|"error","events","metrics","exits_on_done"} → {"done","duplicate"}
//	GET  /dist/artifact/{sha}  → artifact bytes (verified by the worker)
//	GET  /dist/progress        → {"completed","failed","total","workers","elapsed_sec"}
//	GET  /metrics              → Prometheus text, including federated per-worker histograms
//	GET  /healthz              → liveness
//
// Every worker request carries the httpx trace headers (X-NNWC-Run,
// X-NNWC-Worker), so the coordinator's server-side spans attribute work
// to cluster identities, not TCP peers. Observability rides the protocol
// both ways: workers buffer their per-task obs events and ship them on
// /dist/result (merged by the coordinator into one deterministic cluster
// trace), and push cumulative histogram snapshots on every /dist/lease
// renewal and /dist/result (federated into cluster-wide /metrics series).
// A worker exits on the first reply that says done, lease or result.
//
// Completed indexes journal to an optional state file, so a restarted
// coordinator (same spec fingerprint) skips them — resumable runs.
package dist

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
)

// Spec describes one distributed job completely: a worker holding a Spec
// and an index can compute that task's exact result bytes.
type Spec struct {
	// JobID names the run (usually the obs run ID); informational.
	JobID string `json:"job_id"`
	// Kind selects the worker-side runner ("crossval", "compare", ...).
	Kind string `json:"kind"`
	// Seed is the base seed; per-task seeds derive from (Seed, index).
	Seed uint64 `json:"seed"`
	// NumTasks is the size of the index space [0, NumTasks).
	NumTasks int `json:"num_tasks"`
	// Config carries the kind-specific parameters (primitives only — the
	// worker reconstructs model configs from them exactly as the CLI does).
	Config json.RawMessage `json:"config,omitempty"`
	// Artifacts maps role ("dataset", "model") → hex SHA-256. Workers
	// fetch the bytes from the coordinator's content-addressed store.
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

// Fingerprint identifies everything result bits depend on — kind, seed,
// task count, config, artifact hashes (JobID is excluded: two runs of the
// same experiment may resume each other). The state journal stores it so
// a resumed coordinator never splices results from a different job.
func (s Spec) Fingerprint() string {
	roles := make([]string, 0, len(s.Artifacts))
	for role := range s.Artifacts {
		roles = append(roles, role)
	}
	sort.Strings(roles)
	canon := fmt.Sprintf("kind=%s seed=%d tasks=%d config=%s", s.Kind, s.Seed, s.NumTasks, s.Config)
	for _, role := range roles {
		canon += fmt.Sprintf(" %s=%s", role, s.Artifacts[role])
	}
	return obs.HashBytes([]byte(canon))
}

// Validate rejects specs the protocol cannot carry.
func (s Spec) Validate() error {
	if s.Kind == "" {
		return fmt.Errorf("dist: spec has no kind")
	}
	if s.NumTasks <= 0 {
		return fmt.Errorf("dist: spec %q has %d tasks", s.Kind, s.NumTasks)
	}
	return nil
}

// Float is a float64 that marshals as a JSON string in Go's shortest
// round-trip form (strconv 'g', precision -1), so result payloads cross
// the wire bit-exactly — including NaN and ±Inf, which encoding/json
// rejects as bare numbers. HMRE is NaN when undefined, so every payload
// type in dist/jobs uses Float/Floats rather than raw float64.
type Float float64

// MarshalJSON encodes the exact value as a string.
func (f Float) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, strconv.FormatFloat(float64(f), 'g', -1, 64)), nil
}

// UnmarshalJSON decodes a string (exact) or bare number (compatibility).
func (f *Float) UnmarshalJSON(b []byte) error {
	s := string(b)
	if unq, err := strconv.Unquote(s); err == nil {
		s = unq
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("dist: bad float %q: %w", string(b), err)
	}
	*f = Float(v)
	return nil
}

// Floats is a bit-exact, NaN-safe float64 slice for wire payloads.
type Floats []float64

// MarshalJSON encodes each element as an exact string.
func (fs Floats) MarshalJSON() ([]byte, error) {
	out := make([]Float, len(fs))
	for i, v := range fs {
		out[i] = Float(v)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a []Float back into raw float64s.
func (fs *Floats) UnmarshalJSON(b []byte) error {
	var in []Float
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*fs = make(Floats, len(in))
	for i, v := range in {
		(*fs)[i] = float64(v)
	}
	return nil
}

// Wire messages.

type leaseRequest struct {
	Worker string `json:"worker"`
	// Metrics carries cumulative histogram snapshots (keyed by the
	// Metric* role names) from older workers, which pushed them on every
	// lease request; the coordinator still absorbs them. Current workers
	// leave it empty: their histograms change only at task end and at
	// artifact fetch, and both come before a result request, which pushes
	// them. Cumulative snapshots make a push idempotent: the coordinator
	// replaces, never adds.
	Metrics map[string]metrics.HistogramSnapshot `json:"metrics,omitempty"`
}

type leaseReply struct {
	// LeaseID is 0 when no lease was granted (done or retry).
	LeaseID uint64 `json:"lease_id,omitempty"`
	Lo      int    `json:"lo,omitempty"`
	Hi      int    `json:"hi,omitempty"`
	// Done means every task has a result; the worker can exit.
	Done bool `json:"done,omitempty"`
	// RetryMS hints how long to wait before asking again when no lease
	// was available (other workers hold everything outstanding).
	RetryMS int `json:"retry_ms,omitempty"`
	// Held marks an empty reply to a request the coordinator already held
	// for its poll interval: ask again at once (older workers use RetryMS).
	Held bool `json:"held,omitempty"`
}

// empty reports a reply that grants nothing and does not end the job.
func (r leaseReply) empty() bool { return r.LeaseID == 0 && !r.Done }

type resultRequest struct {
	LeaseID uint64 `json:"lease_id"`
	Worker  string `json:"worker"`
	Index   int    `json:"index"`
	// Exactly one of Payload (success) and Error (deterministic task
	// failure — not retried, it would fail identically anywhere) is set.
	Payload json.RawMessage `json:"payload,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Events is the task's buffered obs trace (JSONL): the runner's
	// events plus the worker's closing dist_task span. The coordinator
	// splices them into the merged cluster trace in task-index order.
	Events string `json:"events,omitempty"`
	// Metrics are the worker's cumulative snapshots, pushed with every
	// result so the coordinator's /metrics federates live per-worker
	// series.
	Metrics map[string]metrics.HistogramSnapshot `json:"metrics,omitempty"`
	// ExitsOnDone: the worker exits when this reply says Done, so the
	// reply tells it. Older workers hear Done on their next lease request.
	ExitsOnDone bool `json:"exits_on_done,omitempty"`
}

type resultReply struct {
	Done      bool `json:"done,omitempty"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// Progress is the /dist/progress reply and ReadStateSummary's shape.
type Progress struct {
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Total     int `json:"total"`
	// Workers counts the distinct workers holding live leases right now
	// (0 in journal summaries, which have no lease table).
	Workers int `json:"workers,omitempty"`
	// ElapsedSec is the coordinator's wall time since start — the
	// denominator `nnwc runs tail` turns into a throughput and ETA.
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
}
