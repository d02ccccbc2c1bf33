package train

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
	"nnwc/internal/rng"
	"nnwc/internal/stats"
)

// epochsTotal counts training epochs across every fit in the process — one
// atomic add per epoch, visible on the -pprof-addr /metrics endpoint.
var epochsTotal = metrics.Default().Counter("nnwc_train_epochs_total",
	"Training epochs executed across all fits.")

// Mode selects how gradients are applied within an epoch.
type Mode int

const (
	// Batch accumulates the gradient over the whole training set and
	// applies one optimizer step per epoch. Required by RPROP.
	Batch Mode = iota
	// Online applies an optimizer step after every sample
	// (stochastic/pattern-mode back-propagation), with per-epoch
	// shuffling.
	Online
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Batch:
		return "batch"
	case Online:
		return "online"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// StopReason records why training terminated.
type StopReason string

const (
	// StopThreshold means the training loss fell below Config.TargetLoss —
	// the paper's §3.3 "threshold value ... to indicate when to stop
	// training", the knob that keeps the fit deliberately loose.
	StopThreshold StopReason = "loss-threshold"
	// StopMaxEpochs means the epoch budget ran out.
	StopMaxEpochs StopReason = "max-epochs"
	// StopEarly means validation loss stopped improving for Patience
	// epochs (early stopping on held-out data).
	StopEarly StopReason = "early-stopping"
	// StopDiverged means the loss became non-finite.
	StopDiverged StopReason = "diverged"
)

// Config controls a training run.
type Config struct {
	Optimizer  Optimizer
	Mode       Mode
	MaxEpochs  int
	TargetLoss float64 // stop when training MSE ≤ TargetLoss; ≤0 disables

	// Early stopping on a validation split (used when ValX/ValY are set):
	// stop when the best validation loss has not improved by at least
	// MinDelta for Patience consecutive epochs, then restore the best
	// weights seen.
	Patience int
	MinDelta float64

	// Trace receives structured training events (fit_start, every
	// epoch's losses and norms, fit_end with the stop reason). nil
	// disables tracing; the disabled path adds zero allocations to the
	// epoch loop. Tracing never consumes randomness or reorders
	// floating-point work, so results are bit-identical with it on or off.
	Trace *obs.Trace

	// WeightDecay adds an L2 penalty λ‖w‖²/2 on the weights (not biases):
	// the gradient gains a λ·w term before each optimizer step. It is the
	// era-appropriate alternative to the paper's loose-fit threshold for
	// keeping the model flexible (§3.3); 0 disables it.
	WeightDecay float64
}

// DefaultConfig returns the configuration used throughout the experiments:
// full-batch RPROP, a generous epoch budget, and a loose loss threshold in
// the spirit of the paper's §3.3.
func DefaultConfig() Config {
	return Config{
		Optimizer:  NewRPROP(),
		Mode:       Batch,
		MaxEpochs:  2000,
		TargetLoss: 1e-4,
		Patience:   0,
	}
}

// Result summarizes a training run.
type Result struct {
	Epochs    int
	FinalLoss float64
	ValLoss   float64 // NaN when no validation set was supplied
	Reason    StopReason
}

// Trainer trains a network on paired rows. Reset a zero or used Trainer
// before each fit: FitStaged keeps the buffers below for the next one.
type Trainer struct {
	cfg Config
	src *rng.Source

	ws     Workspace  // batched forward/backward buffers (training + validation)
	X, Y   mat.Matrix // the training rows, staged for FitStaged
	VX, VY mat.Matrix // the validation rows, likewise
	sizes  []int      // the topology grad is shaped for
	grad   *Gradients // the batch gradient

	prevParams []float64 // pre-step parameter snapshot for step-norm telemetry
}

// Reset points t at a new run with cfg and src, keeping its buffers: the
// next fit trains bit for bit as a new Trainer's would, since FitStaged sizes and
// overwrites every buffer a result depends on.
func (t *Trainer) Reset(cfg Config, src *rng.Source) error {
	if cfg.Optimizer == nil {
		return errors.New("train: Config.Optimizer is required")
	}
	if cfg.MaxEpochs <= 0 {
		return errors.New("train: Config.MaxEpochs must be positive")
	}
	if cfg.Mode == Online {
		if _, isRPROP := cfg.Optimizer.(*RPROP); isRPROP {
			return errors.New("train: RPROP requires Batch mode")
		}
	}
	if src == nil {
		src = rng.New(1)
	}
	// Take a private optimizer: stateful optimizers carry per-run slices,
	// and one Config value may drive many concurrent trainers.
	cfg.Optimizer = cfg.Optimizer.Clone()
	t.cfg, t.src = cfg, src
	return nil
}

// Release drops t's references to the run's trace and random source, so a
// pooled trainer holds no caller object between fits. Reset it before the
// next fit.
func (t *Trainer) Release() { t.cfg.Trace, t.src = nil, nil }

// FitStaged trains net on the rows already in t.X and t.Y, validating on
// t.VX and t.VY (early stopping and validation telemetry) when hasVal is
// set. Callers write their rows straight into those matrices (Reshape,
// then fill each row, or CopyRows). FitStaged mutates net in place and
// returns a Result.
func (t *Trainer) FitStaged(net *nn.Network, hasVal bool) (Result, error) {
	if t.X.Rows == 0 || t.X.Rows != t.Y.Rows || t.X.Cols != net.InputDim() || t.Y.Cols != net.OutputDim() {
		return Result{}, fmt.Errorf("train: staged rows (%dx%d, %dx%d) do not match network (%d,%d)",
			t.X.Rows, t.X.Cols, t.Y.Rows, t.Y.Cols, net.InputDim(), net.OutputDim())
	}
	if hasVal && (t.VX.Rows == 0 || t.VX.Rows != t.VY.Rows) {
		return Result{}, errors.New("train: validation rows mismatch")
	}
	t.cfg.Optimizer.Reset()

	if sizes := net.Sizes(); !slices.Equal(sizes, t.sizes) {
		t.sizes, t.grad = sizes, NewGradients(net)
	}
	batchGrad := t.grad
	var sampleGrad *Gradients
	var order []int
	if t.cfg.Mode == Online {
		sampleGrad, order = NewGradients(net), make([]int, t.X.Rows)
		for i := range order {
			order[i] = i
		}
	}
	n := t.X.Rows
	invN := 1 / float64(n)

	res := Result{ValLoss: math.NaN()}
	best := math.Inf(1)
	bestEpoch := 0
	var bestParams []float64

	if t.cfg.Trace.Enabled() {
		valSamples := 0
		if hasVal {
			valSamples = t.VX.Rows
		}
		t.cfg.Trace.Emit("fit_start",
			obs.Int("samples", n),
			obs.Int("val_samples", valSamples),
			obs.Int("params", len(net.Params())),
			obs.Int("max_epochs", t.cfg.MaxEpochs),
			obs.String("mode", t.cfg.Mode.String()),
		)
	}

	for epoch := 1; epoch <= t.cfg.MaxEpochs; epoch++ {
		epochsTotal.Inc()
		var trainLoss float64
		switch t.cfg.Mode {
		case Batch:
			if t.cfg.Trace.Enabled() {
				// Snapshot pre-step parameters so the emitted step norm
				// ‖w_t − w_{t−1}‖ is available after the optimizer runs.
				// Pure copy: no floating-point work is added or reordered.
				t.prevParams = append(t.prevParams[:0], net.Params()...)
			}
			trainLoss = t.batchEpoch(net, batchGrad, invN)
		case Online:
			t.src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				trainLoss += Backprop(net, t.X.Row(i), t.Y.Row(i), sampleGrad)
				applyWeightDecay(net, sampleGrad, t.cfg.WeightDecay)
				t.cfg.Optimizer.Step(net, sampleGrad)
			}
			trainLoss /= float64(n)
		default:
			return Result{}, fmt.Errorf("train: unknown mode %v", t.cfg.Mode)
		}

		valLoss := math.NaN()
		if hasVal {
			valLoss = LossBatch(net, &t.VX, &t.VY, &t.ws)
		}
		res.Epochs = epoch
		res.FinalLoss = trainLoss
		res.ValLoss = valLoss

		var stop StopReason
		if math.IsNaN(trainLoss) || math.IsInf(trainLoss, 0) {
			stop = StopDiverged
		} else if t.cfg.TargetLoss > 0 && trainLoss <= t.cfg.TargetLoss {
			stop = StopThreshold
		} else if hasVal && t.cfg.Patience > 0 {
			if valLoss < best-t.cfg.MinDelta {
				best = valLoss
				bestEpoch = epoch
				bestParams = append(bestParams[:0], net.Params()...)
			} else if epoch-bestEpoch >= t.cfg.Patience {
				if bestParams != nil {
					net.SetParams(bestParams)
					res.ValLoss = best
					res.FinalLoss = LossBatch(net, &t.X, &t.Y, &t.ws)
				}
				stop = StopEarly
			}
		}
		if epoch == t.cfg.MaxEpochs && stop == "" {
			stop = StopMaxEpochs
		}

		if t.cfg.Trace.Enabled() {
			// The epoch event keeps the epoch's own losses even when early
			// stopping restores earlier weights: it logs the trajectory,
			// not the returned model.
			t.emitEpoch(net, batchGrad, epoch, trainLoss, valLoss, hasVal)
		}

		if stop != "" {
			res.Reason = stop
			break
		}
	}
	if res.Reason == StopMaxEpochs && bestParams != nil && hasVal && best < res.ValLoss {
		net.SetParams(bestParams)
		res.ValLoss = best
		res.FinalLoss = LossBatch(net, &t.X, &t.Y, &t.ws)
	}
	if t.cfg.Trace.Enabled() {
		t.cfg.Trace.Emit("fit_end",
			obs.Int("epochs", res.Epochs),
			obs.Float("final_loss", res.FinalLoss),
			obs.Float("val_loss", res.ValLoss),
			obs.String("stop_reason", string(res.Reason)),
		)
	}
	return res, nil
}

// batchEpoch runs one full-batch epoch over the t.X.Rows staged samples
// (invN is their reciprocal): gradient accumulation, weight decay, and one
// optimizer step. It is the hot loop of batch training, extracted so the
// zero-allocation guarantee of the tracing-disabled path can be pinned by
// TestBatchEpochZeroAlloc.
//
//nnwc:hotpath
func (t *Trainer) batchEpoch(net *nn.Network, batchGrad *Gradients, invN float64) float64 {
	trainLoss := BackpropBatch(net, &t.X, &t.Y, invN, &t.ws, batchGrad) * invN
	applyWeightDecay(net, batchGrad, t.cfg.WeightDecay)
	t.cfg.Optimizer.Step(net, batchGrad)
	return trainLoss
}

// emitEpoch emits one "epoch" trace event. Norms are diagnostics computed
// on copies and snapshots; nothing here feeds back into training state.
func (t *Trainer) emitEpoch(net *nn.Network, batchGrad *Gradients, epoch int, trainLoss, valLoss float64, hasVal bool) {
	fields := make([]obs.Field, 0, 6)
	fields = append(fields,
		obs.Int("epoch", epoch),
		obs.Float("train_loss", trainLoss),
	)
	if hasVal {
		fields = append(fields, obs.Float("val_loss", valLoss))
	}
	fields = append(fields, obs.Float("weight_norm", l2(net.Params())))
	if t.cfg.Mode == Batch {
		fields = append(fields, obs.Float("grad_norm", l2(batchGrad.Flat)))
		if len(t.prevParams) == len(net.Params()) {
			fields = append(fields, obs.Float("step_norm", l2dist(net.Params(), t.prevParams)))
		}
	}
	t.cfg.Trace.Emit("epoch", fields...)
}

// l2 returns the Euclidean norm of v.
func l2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// l2dist returns ‖a − b‖₂.
func l2dist(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// applyWeightDecay adds the L2 penalty's gradient λ·w to g. Biases are
// conventionally left unpenalized: shrinking them shifts the function
// rather than smoothing it.
func applyWeightDecay(net *nn.Network, g *Gradients, lambda float64) {
	if stats.ExactZero(lambda) {
		return
	}
	for li, l := range net.Layers {
		mat.AddScaledInto(g.DW[li], lambda, l.W)
	}
}
