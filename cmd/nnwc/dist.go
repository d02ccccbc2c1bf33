package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nnwc/internal/dist"
	"nnwc/internal/dist/jobs"
	"nnwc/internal/obs"
	"nnwc/internal/sched"
)

// experimentFlags bundles the flags the experiment subcommands
// (crossval, compare, surface, importance, select) share — -workers, the
// observability flags, and the distributed-execution flags:
//
//   - -coordinator ADDR shards the experiment over HTTP: the process
//     serves the job on ADDR, workers pull leases, and the reduced result
//     prints exactly as a local run's would — bit-identical output.
//   - -worker URL turns the process into a worker for the coordinator at
//     URL; all job kinds are served regardless of which subcommand
//     launched the worker.
//
// Neither flag set means the subcommand runs its job in process.
type experimentFlags struct {
	obsf        *obsFlags
	workers     *int
	coordinator *string
	worker      *string
	state       *string
	leaseSize   *int
	leaseTTL    *time.Duration
	cache       *string
}

// addExperimentFlags registers the experiment flag family on fs.
func addExperimentFlags(fs *flag.FlagSet) *experimentFlags {
	x := &experimentFlags{workers: workersFlag(fs)}
	x.coordinator = fs.String("coordinator", "", "coordinate this experiment over HTTP on ADDR (e.g. :9000); workers connect with -worker")
	x.worker = fs.String("worker", "", "run as a worker for the coordinator at URL (host:port accepted) instead of running the experiment")
	x.state = fs.String("dist-state", "", "coordinator journal for resumable runs (default: <run dir>/"+dist.StateFileName+" when -trace is on)")
	x.leaseSize = fs.Int("dist-lease", 0, "tasks per work lease (0 = auto)")
	x.leaseTTL = fs.Duration("dist-lease-ttl", 0, "lease time-to-live before tasks are reassigned (0 = 60s default)")
	x.cache = fs.String("dist-cache", "", "worker-side artifact cache directory (default: a fresh temp dir)")
	x.obsf = addObsFlags(fs)
	return x
}

// run runs an experiment subcommand after flag parsing: as a worker for
// another coordinator when -worker is set, otherwise body, which builds
// the subcommand's job, runs it with execute and prints the result.
func (x *experimentFlags) run(args []string, body func() error) error {
	if *x.worker != "" && *x.coordinator != "" {
		return fmt.Errorf("-coordinator and -worker are mutually exclusive")
	}
	sched.SetWorkers(*x.workers)
	if err := x.obsf.start(args); err != nil {
		return err
	}
	if *x.worker != "" {
		return x.obsf.finish(x.runWorker())
	}
	x.obsf.setWorkers(sched.Workers(*x.workers))
	return x.obsf.finish(body())
}

// execute runs job in process, or as the coordinator of worker processes
// when -coordinator is set; the result is bit-identical either way.
func execute[O any](x *experimentFlags, job jobs.Job[O]) (O, error) {
	ctx, cancel := signalContext()
	defer cancel()
	ctx = obs.ContextWithTrace(ctx, x.obsf.trace())
	var ex jobs.Executor = jobs.Local{}
	if *x.coordinator != "" {
		ex = x.options()
	}
	out, _, err := jobs.Execute(ctx, ex, job)
	return out, err
}

// signalContext is a context canceled by SIGINT/SIGTERM, so a Ctrl-C'd
// coordinator or worker exits cleanly instead of abandoning leases late.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runWorker drives one worker process to job completion. The subcommand's
// -workers flag, already set as the scheduler default, bounds in-lease
// task parallelism.
func (x *experimentFlags) runWorker() error {
	ctx, cancel := signalContext()
	defer cancel()
	w, err := jobs.NewWorker(dist.WorkerConfig{
		Coordinator: *x.worker,
		CacheDir:    *x.cache,
		Logf:        x.obsf.infof,
	})
	if err != nil {
		return err
	}
	return w.Run(ctx)
}

// options assembles the coordinator-side jobs.Options from the flags and
// the observability context: progress lines go through -quiet, and a
// traced run defaults its resume journal into the run directory so
// `nnwc runs show` can report distributed progress.
func (x *experimentFlags) options() jobs.Options {
	opt := jobs.Options{
		Addr:      *x.coordinator,
		LeaseSize: *x.leaseSize,
		LeaseTTL:  *x.leaseTTL,
		StateFile: *x.state,
		Logf:      x.obsf.infof,
	}
	if dir := x.obsf.runDir(); dir != "" {
		opt.JobID = filepath.Base(dir)
		if opt.StateFile == "" {
			opt.StateFile = filepath.Join(dir, dist.StateFileName)
		}
		// A traced coordinated run also merges the workers' shipped events
		// into one cluster trace next to the manifest, for `runs timeline`.
		opt.ClusterTraceFile = filepath.Join(dir, dist.ClusterTraceFileName)
	}
	return opt
}

// runDir reports the active -trace run directory ("" when tracing is off).
func (o *obsFlags) runDir() string {
	if o.run != nil {
		return o.run.Dir
	}
	return ""
}
