package threetier

import (
	"context"
	"fmt"

	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/workload"
)

// SweepSpec describes a sample-collection campaign: the set of
// configurations to run, mirroring the paper's §3.1 "one set of samples
// should be prepared for each application to characterize".
type SweepSpec struct {
	InjectionRates []float64
	MfgThreads     []int
	WebThreads     []int
	DefaultThreads []int
	// Replicates runs each configuration this many times with distinct
	// seeds and averages the indicators, like the paper's averaging of
	// collected counter values "to reduce the effect of sampling error".
	Replicates int
}

// DefaultSweep is the campaign used to build the experiment dataset: a
// coarse grid around the paper's operating point (injection rate 560,
// mfg queue 16).
func DefaultSweep() SweepSpec {
	return SweepSpec{
		InjectionRates: []float64{480, 560, 640},
		MfgThreads:     []int{8, 16, 24},
		WebThreads:     []int{8, 12, 14, 16, 18, 20, 24, 28, 32},
		DefaultThreads: []int{2, 4, 6, 8, 12, 16, 20, 24},
		Replicates:     1,
	}
}

// Size returns the number of distinct configurations in the sweep.
func (s SweepSpec) Size() int {
	return len(s.InjectionRates) * len(s.MfgThreads) * len(s.WebThreads) * len(s.DefaultThreads)
}

// Configs enumerates the sweep's configurations in deterministic order.
func (s SweepSpec) Configs() []Config {
	out := make([]Config, 0, s.Size())
	for _, rate := range s.InjectionRates {
		for _, d := range s.DefaultThreads {
			for _, m := range s.MfgThreads {
				for _, w := range s.WebThreads {
					out = append(out, Config{
						InjectionRate:  rate,
						MfgThreads:     m,
						WebThreads:     w,
						DefaultThreads: d,
					})
				}
			}
		}
	}
	return out
}

// Collect runs the sweep and returns the samples as a workload.Dataset with
// the paper's feature and indicator schema. The seed determines every
// replicate's random stream; the same (spec, sys, seed) triple always
// yields the identical dataset.
func Collect(spec SweepSpec, sys SystemParams, seed uint64) (*workload.Dataset, error) {
	return CollectConfigs(spec.Configs(), spec.Replicates, sys, seed)
}

// simPool keeps warm simulators: reset overwrites every field a run reads,
// so a reused simulator keeps only its storage.
var simPool = sched.NewPool(func() *Simulator { return new(Simulator) })

// CollectConfigs runs an arbitrary list of configurations (e.g. one
// produced by a Design-of-Experiments planner) and returns the samples.
// Each configuration is simulated `replicates` times (minimum 1) with
// derived seeds and the indicators averaged. Configurations run in
// parallel on the sched default worker count; every replicate's stream is
// split from the seed up front in serial order, so the dataset is
// bit-identical at any worker count.
func CollectConfigs(configs []Config, replicates int, sys SystemParams, seed uint64) (*workload.Dataset, error) {
	if replicates < 1 {
		replicates = 1
	}
	master := rng.New(seed)
	srcs := make([]*rng.Source, len(configs)*replicates)
	for i := range srcs {
		srcs[i] = master.Split()
	}
	ys, err := sched.Map(context.TODO(), 0, "collect-config", len(configs), func(_ context.Context, i int) ([]float64, error) {
		cfg, sim := configs[i], simPool.Get()
		defer simPool.Put(sim)
		acc := make([]float64, len(IndicatorNames()))
		for rep := 0; rep < replicates; rep++ {
			if err := sim.reset(cfg, sys, srcs[i*replicates+rep]); err != nil {
				return nil, fmt.Errorf("threetier: collecting %+v: %w", cfg, err)
			}
			m, err := sim.Run()
			if err != nil {
				return nil, err
			}
			for j, v := range m.Indicators() {
				acc[j] += v
			}
		}
		for j := range acc {
			acc[j] /= float64(replicates)
		}
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	ds := workload.NewDataset(FeatureNames(), IndicatorNames())
	for i, cfg := range configs {
		ds.MustAppend(workload.Sample{X: cfg.Vector(), Y: ys[i]})
	}
	return ds, nil
}
