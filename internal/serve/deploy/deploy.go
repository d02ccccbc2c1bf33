// Package deploy is the fleet's deployment controller: each tenant has a
// live instance and optionally a shadow (canary) instance, both immutable
// registry snapshots behind atomic pointers. Prediction traffic is served
// by the live model and mirrored to the shadow; observation traffic
// (prediction-vs-actual pairs reported by clients) feeds rolling HMRE
// windows for both, and the controller auto-promotes a shadow whose rolling
// live-traffic HMRE stays within the configured envelope — or rolls a
// degraded live model back to its predecessor.
//
// Promotion and rollback swap one pointer; a request in flight keeps the
// snapshot it resolved, so no request ever observes a half-promoted model.
package deploy

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"nnwc/internal/serve/registry"
	"nnwc/internal/stats"
)

// Config tunes the promotion/rollback policy. Zero values get defaults.
type Config struct {
	// PromoteHMRE is the training-envelope bound: a shadow whose rolling
	// HMRE over live traffic is ≤ this (and no worse than the live model)
	// is auto-promoted. Default 0.10 — the paper's >90%-accuracy regime.
	PromoteHMRE float64
	// DemoteHMRE triggers rollback: a live model whose rolling HMRE
	// exceeds this is reverted to its predecessor. Default 0.25.
	DemoteHMRE float64
	// MinObservations is how many prediction-vs-actual pairs a window
	// needs before the policy acts on it. Default 32.
	MinObservations int
	// AutoPromote enables policy-driven promotion/rollback on Observe;
	// explicit Promote/Rollback calls always work. Default off — opt in.
	AutoPromote bool
}

func (c Config) withDefaults() Config {
	if c.PromoteHMRE <= 0 {
		c.PromoteHMRE = 0.10
	}
	if c.DemoteHMRE <= 0 {
		c.DemoteHMRE = 0.25
	}
	if c.MinObservations <= 0 {
		c.MinObservations = 32
	}
	return c
}

// Event is one deployment action, delivered to the controller's sink for
// metrics counters and run traces.
type Event struct {
	Tenant  string
	Action  string // "deploy" | "canary" | "promote" | "rollback"
	Version int
	SHA256  string
	Auto    bool // policy-driven (Observe) rather than operator-requested
}

// Controller manages every tenant's deployment state.
type Controller struct {
	cfg   Config
	reg   *registry.Registry
	sink  func(Event)
	mu    sync.Mutex
	fleet map[string]*Deployment
}

// New builds a controller over reg. sink (optional) receives deployment
// events synchronously; it must be cheap and non-blocking.
func New(reg *registry.Registry, cfg Config, sink func(Event)) *Controller {
	return &Controller{
		cfg:   cfg.withDefaults(),
		reg:   reg,
		sink:  sink,
		fleet: make(map[string]*Deployment),
	}
}

func (c *Controller) emit(e Event) {
	if c.sink != nil {
		c.sink(e)
	}
}

// Deployment is one tenant's serving state. The live and shadow pointers
// are the only state the request path touches.
type Deployment struct {
	tenant string
	live   atomic.Pointer[registry.Instance]
	shadow atomic.Pointer[registry.Instance]

	mu          sync.Mutex
	prevVersion int // live's predecessor, 0 = none
	liveErr     *window
	shadowErr   *window
	divergence  *window // |shadow − live| relative gap from mirrored traffic
	promotions  uint64
	rollbacks   uint64
}

// Live returns the current live instance (nil before the first deploy).
func (d *Deployment) Live() *registry.Instance { return d.live.Load() }

// Shadow returns the current shadow instance, nil when none is staged.
func (d *Deployment) Shadow() *registry.Instance { return d.shadow.Load() }

// Deployment returns the named tenant's deployment, or nil.
func (c *Controller) Deployment(tenant string) *Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet[tenant]
}

func (c *Controller) deployment(tenant string) *Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.fleet[tenant]
	if !ok {
		d = &Deployment{
			tenant:     tenant,
			liveErr:    newWindow(windowSize),
			shadowErr:  newWindow(windowSize),
			divergence: newWindow(windowSize),
		}
		c.fleet[tenant] = d
	}
	return d
}

// Deploy registers the artifact at path for tenant. The first deploy (or
// canary=false) swaps it straight to live; canary=true stages it as the
// shadow, mirroring traffic until promoted.
func (c *Controller) Deploy(tenant, path string, canary bool) (*registry.Instance, error) {
	inst, err := c.reg.Register(tenant, path)
	if err != nil {
		return nil, err
	}
	d := c.deployment(tenant)
	d.mu.Lock()
	defer d.mu.Unlock()
	live := d.live.Load()
	if live != nil && inst.Version == live.Version {
		return inst, nil // redeploying the live bytes is a no-op
	}
	if canary && live != nil {
		if inst.InputDim != live.InputDim || inst.OutputDim != live.OutputDim {
			return nil, fmt.Errorf("deploy: canary %s has dims (%d,%d), live %s has (%d,%d)",
				inst.Ref(), inst.InputDim, inst.OutputDim, live.Ref(), live.InputDim, live.OutputDim)
		}
		d.shadow.Store(inst)
		d.shadowErr.reset()
		d.divergence.reset()
		c.emit(Event{Tenant: tenant, Action: "canary", Version: inst.Version, SHA256: inst.SHA256})
		return inst, nil
	}
	if live != nil {
		d.prevVersion = live.Version
	}
	d.live.Store(inst)
	d.liveErr.reset()
	c.emit(Event{Tenant: tenant, Action: "deploy", Version: inst.Version, SHA256: inst.SHA256})
	return inst, nil
}

// Promote swaps the tenant's shadow to live, keeping the previous live
// version for rollback.
func (c *Controller) Promote(tenant string) (*registry.Instance, error) {
	d := c.Deployment(tenant)
	if d == nil {
		return nil, fmt.Errorf("deploy: unknown tenant %q", tenant)
	}
	return c.promote(d, false)
}

func (c *Controller) promote(d *Deployment, auto bool) (*registry.Instance, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sh := d.shadow.Load()
	if sh == nil {
		return nil, fmt.Errorf("deploy: tenant %q has no shadow to promote", d.tenant)
	}
	if live := d.live.Load(); live != nil {
		d.prevVersion = live.Version
	}
	// Swap order matters for concurrent readers: publish the new live
	// first, then retire the shadow, so a racing request resolves either
	// the old live or the new one — never an empty tenant.
	d.live.Store(sh)
	d.shadow.Store(nil)
	// The shadow's observed accuracy is now the live window's history.
	d.liveErr.copyFrom(d.shadowErr)
	d.shadowErr.reset()
	d.divergence.reset()
	d.promotions++
	c.emit(Event{Tenant: d.tenant, Action: "promote", Version: sh.Version, SHA256: sh.SHA256, Auto: auto})
	return sh, nil
}

// Rollback reverts the tenant: a staged shadow is dropped; otherwise live
// reverts to its predecessor version (rehydrated via the registry's warm
// cache if it was evicted).
func (c *Controller) Rollback(tenant string) (*registry.Instance, error) {
	d := c.Deployment(tenant)
	if d == nil {
		return nil, fmt.Errorf("deploy: unknown tenant %q", tenant)
	}
	return c.rollback(d, false)
}

func (c *Controller) rollback(d *Deployment, auto bool) (*registry.Instance, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sh := d.shadow.Load(); sh != nil {
		d.shadow.Store(nil)
		d.shadowErr.reset()
		d.divergence.reset()
		d.rollbacks++
		c.emit(Event{Tenant: d.tenant, Action: "rollback", Version: sh.Version, SHA256: sh.SHA256, Auto: auto})
		return d.live.Load(), nil
	}
	if d.prevVersion == 0 {
		return nil, fmt.Errorf("deploy: tenant %q has no previous version to roll back to", d.tenant)
	}
	prev, err := c.reg.Instance(d.tenant, d.prevVersion)
	if err != nil {
		return nil, fmt.Errorf("deploy: rolling back %q: %w", d.tenant, err)
	}
	demoted := d.live.Load()
	d.live.Store(prev)
	d.prevVersion = 0 // one level of undo; registry keeps every version
	d.liveErr.reset()
	d.rollbacks++
	ev := Event{Tenant: d.tenant, Action: "rollback", Version: prev.Version, SHA256: prev.SHA256, Auto: auto}
	if demoted != nil {
		ev.Version = demoted.Version
		ev.SHA256 = demoted.SHA256
	}
	c.emit(ev)
	return prev, nil
}

// Decision reports what Observe concluded.
type Decision struct {
	LiveHMRE   float64 // rolling mean per-observation HMRE, NaN until observed
	ShadowHMRE float64
	Promoted   bool
	RolledBack bool
}

// Observe feeds one prediction-vs-actual pair into the tenant's rolling
// windows: both the live and shadow models predict x, each prediction's
// HMRE against the actual indicators is recorded, and — when AutoPromote
// is on — the promotion/rollback policy runs on the updated windows.
func (c *Controller) Observe(tenant string, x, actual []float64) (Decision, error) {
	d := c.Deployment(tenant)
	if d == nil {
		return Decision{}, fmt.Errorf("deploy: unknown tenant %q", tenant)
	}
	live := d.live.Load()
	if live == nil {
		return Decision{}, fmt.Errorf("deploy: tenant %q has no live model", tenant)
	}
	if len(x) != live.InputDim {
		return Decision{}, fmt.Errorf("deploy: observation has %d features, model expects %d", len(x), live.InputDim)
	}
	if len(actual) != live.OutputDim {
		return Decision{}, fmt.Errorf("deploy: observation has %d indicators, model has %d", len(actual), live.OutputDim)
	}

	livePred := live.Pred.PredictAll([][]float64{x})[0]
	liveHMRE, liveErr := stats.HarmonicMeanRelativeError(actual, livePred)

	var shadowHMRE = math.NaN()
	sh := d.shadow.Load()
	if sh != nil {
		shPred := sh.Pred.PredictAll([][]float64{x})[0]
		if h, err := stats.HarmonicMeanRelativeError(actual, shPred); err == nil {
			shadowHMRE = h
		}
	}

	d.mu.Lock()
	if liveErr == nil {
		d.liveErr.add(liveHMRE)
	}
	if !math.IsNaN(shadowHMRE) {
		d.shadowErr.add(shadowHMRE)
	}
	dec := Decision{LiveHMRE: d.liveErr.mean(), ShadowHMRE: d.shadowErr.mean()}
	promote := c.cfg.AutoPromote && sh != nil && d.shadow.Load() == sh &&
		d.shadowErr.count() >= c.cfg.MinObservations &&
		dec.ShadowHMRE <= c.cfg.PromoteHMRE &&
		(d.liveErr.count() == 0 || dec.ShadowHMRE <= dec.LiveHMRE)
	demote := c.cfg.AutoPromote && !promote && d.prevVersion != 0 &&
		d.liveErr.count() >= c.cfg.MinObservations &&
		dec.LiveHMRE > c.cfg.DemoteHMRE
	d.mu.Unlock()

	if promote {
		if _, err := c.promote(d, true); err == nil {
			dec.Promoted = true
		}
	} else if demote {
		if _, err := c.rollback(d, true); err == nil {
			dec.RolledBack = true
		}
	}
	return dec, nil
}

// Mirror records the relative gap between mirrored shadow predictions and
// the live predictions that were actually served — the divergence signal
// operators watch before trusting a canary with promotion.
func (d *Deployment) Mirror(livePred, shadowPred []float64) {
	if len(livePred) != len(shadowPred) || len(livePred) == 0 {
		return
	}
	var gap, n float64
	for i := range livePred {
		denom := math.Abs(livePred[i])
		if denom < 1e-9 {
			denom = 1e-9
		}
		gap += math.Abs(shadowPred[i]-livePred[i]) / denom
		n++
	}
	d.mu.Lock()
	d.divergence.add(gap / n)
	d.mu.Unlock()
}

// Status is one tenant's deployment summary for fleet listings.
type Status struct {
	Tenant       string  `json:"tenant"`
	LiveVersion  int     `json:"live_version"`
	LiveSHA256   string  `json:"live_sha256"`
	LiveShape    string  `json:"live_shape"`
	ShadowVer    int     `json:"shadow_version,omitempty"`
	ShadowSHA256 string  `json:"shadow_sha256,omitempty"`
	PrevVersion  int     `json:"previous_version,omitempty"`
	LiveHMRE     float64 `json:"live_hmre"`   // NaN → omitted by renderers
	ShadowHMRE   float64 `json:"shadow_hmre"` // NaN → omitted
	Divergence   float64 `json:"shadow_divergence"`
	LiveObs      int     `json:"live_observations"`
	ShadowObs    int     `json:"shadow_observations"`
	Promotions   uint64  `json:"promotions"`
	Rollbacks    uint64  `json:"rollbacks"`
}

// Status summarizes one deployment.
func (d *Deployment) Status() Status {
	s := Status{Tenant: d.tenant}
	if live := d.live.Load(); live != nil {
		s.LiveVersion, s.LiveSHA256, s.LiveShape = live.Version, live.SHA256, live.Shape
	}
	if sh := d.shadow.Load(); sh != nil {
		s.ShadowVer, s.ShadowSHA256 = sh.Version, sh.SHA256
	}
	d.mu.Lock()
	s.PrevVersion = d.prevVersion
	s.LiveHMRE = d.liveErr.mean()
	s.ShadowHMRE = d.shadowErr.mean()
	s.Divergence = d.divergence.mean()
	s.LiveObs = d.liveErr.count()
	s.ShadowObs = d.shadowErr.count()
	s.Promotions = d.promotions
	s.Rollbacks = d.rollbacks
	d.mu.Unlock()
	return s
}

// window is a fixed-capacity ring of recent per-observation HMRE values.
// Its mean is the "rolling HMRE" the promotion policy gates on. Callers
// synchronize access (the owning Deployment's mutex).
type window struct {
	buf  []float64
	n    int
	next int
	sum  float64
}

// windowSize is the capacity of a deployment's rolling windows.
const windowSize = 256

func newWindow(capacity int) *window { return &window{buf: make([]float64, capacity)} }

func (w *window) add(v float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.next]
	} else {
		w.n++
	}
	w.buf[w.next] = v
	w.sum += v
	w.next = (w.next + 1) % len(w.buf)
}

func (w *window) count() int { return w.n }

func (w *window) mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.sum / float64(w.n)
}

func (w *window) reset() {
	w.n, w.next, w.sum = 0, 0, 0
	for i := range w.buf {
		w.buf[i] = 0
	}
}

func (w *window) copyFrom(src *window) {
	w.reset()
	// Replay src in insertion order so the ring stays coherent.
	start := src.next - src.n
	for i := 0; i < src.n; i++ {
		w.add(src.buf[(start+i+len(src.buf))%len(src.buf)])
	}
}
