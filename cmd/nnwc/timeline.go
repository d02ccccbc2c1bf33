package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nnwc/internal/dist"
)

// clusterEvent is the superset of cluster-trace fields the timeline
// reads; each event type populates the subset it carries.
type clusterEvent struct {
	T      string  `json:"t"`
	Ev     string  `json:"ev"`
	Job    string  `json:"job"`
	Kind   string  `json:"kind"`
	Worker string  `json:"worker"`
	Lo     int     `json:"lo"`
	Hi     int     `json:"hi"`
	Index  int     `json:"index"`
	Lease  int     `json:"lease"`
	Tasks  int     `json:"tasks"`
	Leases int     `json:"leases"`
	Failed int     `json:"failed"`
	MS     float64 `json:"ms"`
}

func (e clusterEvent) time() (time.Time, bool) {
	t, err := time.Parse(time.RFC3339Nano, e.T)
	return t, err == nil
}

// taskBar is one completed task on a worker's lane.
type taskBar struct {
	index      int
	worker     string
	start, end time.Time
	ms         float64
}

const laneWidth = 60

// runsTimeline renders the per-worker lease/task timeline of a run's
// merged cluster trace: who ran what when, how long each task took,
// which tasks straggled, and whether any leases expired and were
// reassigned. It reads the *raw* trace — the wall-clock fields the
// determinism tests strip are exactly what a timeline is made of.
func runsTimeline(base, id string) error {
	name, err := resolveRun(base, id)
	if err != nil {
		return err
	}
	path := filepath.Join(base, name, dist.ClusterTraceFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("no cluster trace for run %s (coordinated runs with -trace write %s): %w", name, dist.ClusterTraceFileName, err)
	}

	var job, done *clusterEvent
	var tasks []taskBar
	var leaseGrants, reassignSweeps, reassignedTasks int
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev clusterEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue // foreign lines (runner events) are not timeline material
		}
		switch ev.Ev {
		case "cluster_job":
			e := ev
			job = &e
		case "cluster_done":
			e := ev
			done = &e
		case "dist_lease":
			leaseGrants++
		case "dist_reassign":
			reassignSweeps++
			reassignedTasks += ev.Tasks
		case "dist_task":
			end, ok := ev.time()
			if !ok {
				continue
			}
			start := end.Add(-time.Duration(ev.MS * float64(time.Millisecond)))
			tasks = append(tasks, taskBar{index: ev.Index, worker: ev.Worker, start: start, end: end, ms: ev.MS})
		}
	}
	if job != nil {
		fmt.Printf("cluster timeline: %s job %q, %d task(s)\n", job.Kind, job.Job, job.Tasks)
	} else {
		fmt.Printf("cluster timeline: %s\n", path)
	}
	if len(tasks) == 0 {
		fmt.Println("no completed tasks in the trace")
		return nil
	}

	// Time origin and span over all task bars.
	t0, t1 := tasks[0].start, tasks[0].end
	for _, tb := range tasks {
		if tb.start.Before(t0) {
			t0 = tb.start
		}
		if tb.end.After(t1) {
			t1 = tb.end
		}
	}
	span := t1.Sub(t0)
	if span <= 0 {
		span = time.Millisecond
	}

	// Median task wall time → straggler threshold (>2× median).
	byMS := make([]float64, len(tasks))
	for i, tb := range tasks {
		byMS[i] = tb.ms
	}
	sort.Float64s(byMS)
	median := byMS[len(byMS)/2]
	straggler := func(ms float64) bool { return median > 0 && ms > 2*median }

	byWorker := map[string][]taskBar{}
	for _, tb := range tasks {
		byWorker[tb.worker] = append(byWorker[tb.worker], tb)
	}
	workers := sortedKeys(byWorker)

	fmt.Printf("span %.2fs across %d worker(s), %d lease grant(s)", span.Seconds(), len(workers), leaseGrants)
	if reassignSweeps > 0 {
		fmt.Printf(", %d task(s) reassigned in %d expiry sweep(s)", reassignedTasks, reassignSweeps)
	}
	fmt.Println()
	if done != nil && done.Failed > 0 {
		fmt.Printf("FAILED: %d of %d task(s)\n", done.Failed, done.Tasks)
	}

	colDur := span / laneWidth
	fmt.Printf("\nworker lanes (one column ≈ %s):\n", colDur.Round(time.Millisecond))
	nameW := 0
	for _, w := range workers {
		if len(w) > nameW {
			nameW = len(w)
		}
	}
	for _, w := range workers {
		lane := make([]rune, laneWidth)
		for i := range lane {
			lane[i] = '·'
		}
		var busy time.Duration
		for _, tb := range byWorker[w] {
			busy += tb.end.Sub(tb.start)
			lo := int(float64(tb.start.Sub(t0)) / float64(span) * laneWidth)
			hi := int(float64(tb.end.Sub(t0)) / float64(span) * laneWidth)
			if hi <= lo {
				hi = lo + 1
			}
			mark := '█'
			if straggler(tb.ms) {
				mark = '!'
			}
			for i := lo; i < hi && i < laneWidth; i++ {
				lane[i] = mark
			}
		}
		fmt.Printf("  %-*s |%s| %d task(s), %.2fs busy\n", nameW, w, string(lane), len(byWorker[w]), busy.Seconds())
	}

	sort.Slice(tasks, func(i, j int) bool { return tasks[i].index < tasks[j].index })
	fmt.Println("\ntasks:")
	fmt.Printf("  %-6s %-*s %10s\n", "index", nameW, "worker", "ms")
	for _, tb := range tasks {
		note := ""
		if straggler(tb.ms) {
			note = "  ← straggler (>2x median)"
		}
		fmt.Printf("  %-6d %-*s %10.1f%s\n", tb.index, nameW, tb.worker, tb.ms, note)
	}
	return nil
}

// runsTail streams live progress. With -addr it polls the coordinator's
// /dist/progress endpoint (workers, throughput, ETA); with a run id it
// re-reads the run's dist state journal, which lags only by the
// journal's write granularity.
func runsTail(base, id, addr string, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if addr != "" {
		return tailCoordinator(dist.NormalizeURL(addr), interval)
	}
	name, err := resolveRun(base, id)
	if err != nil {
		return err
	}
	return tailJournal(filepath.Join(base, name, dist.StateFileName), interval)
}

func tailCoordinator(url string, interval time.Duration) error {
	client := &http.Client{Timeout: 10 * time.Second}
	misses, answered := 0, false
	for {
		var p dist.Progress
		resp, err := client.Get(url + "/dist/progress")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
		}
		if err != nil {
			// A coordinator stops listening once its workers have heard
			// Done: vanishing after progress was seen means the job finished.
			misses++
			if misses >= 3 {
				if answered {
					fmt.Println("coordinator stopped answering after progress was seen")
					return nil
				}
				return fmt.Errorf("coordinator at %s is not answering: %v", url, err)
			}
		} else {
			misses = 0
			answered = true
			fmt.Println(progressLine(p))
			if p.Total > 0 && p.Completed+p.Failed >= p.Total {
				return nil
			}
		}
		time.Sleep(interval)
	}
}

func tailJournal(path string, interval time.Duration) error {
	for {
		sum, err := dist.ReadStateSummary(path)
		if err != nil {
			return fmt.Errorf("reading dist journal %s: %w", path, err)
		}
		fmt.Println(progressLine(sum.Progress))
		if sum.Total > 0 && sum.Completed+sum.Failed >= sum.Total {
			return nil
		}
		time.Sleep(interval)
	}
}

// progressLine renders one tail line: counts, live workers, throughput
// and the remaining-work ETA when the coordinator reports elapsed time.
func progressLine(p dist.Progress) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d task(s)", p.Completed+p.Failed, p.Total)
	if p.Failed > 0 {
		fmt.Fprintf(&b, " (%d failed)", p.Failed)
	}
	if p.Workers > 0 {
		fmt.Fprintf(&b, ", %d worker(s)", p.Workers)
	}
	if p.ElapsedSec > 0 {
		fmt.Fprintf(&b, ", %.1fs elapsed", p.ElapsedSec)
		if p.Completed > 0 && p.Completed < p.Total {
			rate := float64(p.Completed) / p.ElapsedSec
			eta := float64(p.Total-p.Completed-p.Failed) / rate
			fmt.Fprintf(&b, ", %.2f task/s, ETA %.0fs", rate, eta)
		}
	}
	return b.String()
}
