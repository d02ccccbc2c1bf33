// Package registry is the serve plane's model store: versioned, immutable
// artifacts keyed by the same SHA-256 fingerprints internal/obs records in
// run manifests, with an LRU cache of warm (loaded) models on top of the
// atomic temp-file+rename persistence path (core.SaveFile).
//
// A tenant is one named workload; registering an artifact for a tenant
// assigns the next version number (re-registering bytes already known to
// the tenant returns the existing version — versions are content-addressed,
// so "deploy the same file twice" is idempotent). Loaded models are wrapped
// in immutable Instance snapshots; the deployment layer swaps them behind
// atomic pointers, so a request always observes one consistent model.
//
// The warm cache bounds how many instances stay loaded. Eviction only
// drops the registry's reference — instances pinned by a live or shadow
// deployment keep serving until released — and a cold hit reloads from the
// artifact path, verifying the bytes still match the registered SHA-256.
package registry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/obs"
)

// Artifact identifies one registered model version: where its bytes live,
// their fingerprint, and the schema needed to route and validate requests
// without touching the weights.
type Artifact struct {
	Tenant  string
	Version int
	SHA256  string
	Path    string

	InputDim, OutputDim int
	FeatureNames        []string
	TargetNames         []string
	FeatureMin          []float64
	FeatureMax          []float64

	// Shape is the network topology key ("4-16-5"): tenants with equal
	// Shape share a batch group in the cross-tenant coalescer.
	Shape string

	RegisteredAt time.Time
}

// Ref renders the canonical tenant@version reference.
func (a Artifact) Ref() string { return a.Tenant + "@v" + strconv.Itoa(a.Version) }

// Instance is one warm, immutable model snapshot: the artifact identity
// plus the loaded predictor. Instances are never mutated after creation —
// hot swaps replace the whole pointer. Build them with NewInstance, which
// also encodes the response metadata every prediction served by the
// instance carries.
type Instance struct {
	Artifact
	Pred     core.BatchPredictor
	LoadedAt time.Time

	// infoJSON and targetNamesJSON are Info() and TargetNames as
	// encoding/json renders them, encoded once so the predict path can
	// copy them into every response.
	infoJSON, targetNamesJSON []byte
}

// ModelInfo describes the model that served a response.
type ModelInfo struct {
	Ref          string   `json:"ref"` // tenant@vN
	Version      int      `json:"version"`
	SHA256       string   `json:"sha256"`
	Shape        string   `json:"shape"`
	Path         string   `json:"path"`
	LoadedAt     string   `json:"loaded_at"`
	FeatureNames []string `json:"feature_names"`
	TargetNames  []string `json:"target_names"`
}

// NewInstance snapshots a loaded predictor for art and encodes its
// response metadata.
func NewInstance(art Artifact, pred core.BatchPredictor, loadedAt time.Time) *Instance {
	inst := &Instance{Artifact: art, Pred: pred, LoadedAt: loadedAt}
	// Strings and string slices always encode, so the errors are nil.
	inst.infoJSON, _ = json.Marshal(inst.Info())
	inst.targetNamesJSON, _ = json.Marshal(art.TargetNames)
	return inst
}

// Info describes the instance for responses and the fleet API.
func (inst *Instance) Info() ModelInfo {
	return ModelInfo{
		Ref:          inst.Ref(),
		Version:      inst.Version,
		SHA256:       inst.SHA256,
		Shape:        inst.Shape,
		Path:         inst.Path,
		LoadedAt:     inst.LoadedAt.UTC().Format(time.RFC3339Nano),
		FeatureNames: inst.FeatureNames,
		TargetNames:  inst.TargetNames,
	}
}

// InfoJSON is Info() encoded as JSON; callers must not modify it.
func (inst *Instance) InfoJSON() []byte { return inst.infoJSON }

// TargetNamesJSON is TargetNames encoded as JSON; callers must not modify
// it.
func (inst *Instance) TargetNamesJSON() []byte { return inst.targetNamesJSON }

// Registry stores per-tenant version chains and the warm-instance LRU.
type Registry struct {
	mu       sync.Mutex
	capacity int
	tenants  map[string][]Artifact
	warm     map[string]*warmEntry // key: tenant@version
	// LRU list over warm entries; head = most recently used.
	head, tail *warmEntry
}

type warmEntry struct {
	key        string
	inst       *Instance
	prev, next *warmEntry
}

// New returns an empty registry whose warm cache holds up to capacity
// loaded instances (minimum 1; default 8 when capacity <= 0).
func New(capacity int) *Registry {
	if capacity <= 0 {
		capacity = 8
	}
	return &Registry{
		capacity: capacity,
		tenants:  make(map[string][]Artifact),
		warm:     make(map[string]*warmEntry),
	}
}

// shapeKey renders the topology of a loaded model.
func shapeKey(m *core.NNModel) string {
	sizes := m.Net.Sizes()
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, "-")
}

// Register fingerprints and loads the artifact at path for tenant,
// assigning the next version. If the tenant already has a version with the
// same SHA-256, that version is returned (warmed) instead of a duplicate.
func (r *Registry) Register(tenant, path string) (*Instance, error) {
	if tenant == "" {
		return nil, fmt.Errorf("registry: empty tenant name")
	}
	if strings.ContainsAny(tenant, "@\"{}") {
		return nil, fmt.Errorf("registry: tenant name %q may not contain @, quotes or braces", tenant)
	}
	sha, err := obs.HashFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: fingerprinting %s: %w", path, err)
	}

	r.mu.Lock()
	for _, a := range r.tenants[tenant] {
		if a.SHA256 == sha {
			r.mu.Unlock()
			return r.Instance(tenant, a.Version)
		}
	}
	r.mu.Unlock()

	m, err := core.LoadModelFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: loading %s: %w", path, err)
	}
	art := Artifact{
		Tenant:       tenant,
		SHA256:       sha,
		Path:         path,
		InputDim:     m.InputDim(),
		OutputDim:    m.OutputDim(),
		FeatureNames: m.FeatureNames,
		TargetNames:  m.TargetNames,
		FeatureMin:   m.FeatureMin,
		FeatureMax:   m.FeatureMax,
		Shape:        shapeKey(m),
		RegisteredAt: time.Now(),
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	// Re-check under the lock: a concurrent Register may have appended.
	for _, a := range r.tenants[tenant] {
		if a.SHA256 == sha {
			if e, ok := r.warm[keyOf(tenant, a.Version)]; ok {
				r.touch(e)
				return e.inst, nil
			}
			inst := NewInstance(a, m, art.RegisteredAt)
			r.insert(inst)
			return inst, nil
		}
	}
	art.Version = len(r.tenants[tenant]) + 1
	r.tenants[tenant] = append(r.tenants[tenant], art)
	inst := NewInstance(art, m, art.RegisteredAt)
	r.insert(inst)
	return inst, nil
}

func keyOf(tenant string, version int) string { return tenant + "@v" + strconv.Itoa(version) }

// Instance returns the warm instance for tenant@version, reloading from the
// artifact path on a cold hit. A reload that finds different bytes than the
// registered fingerprint fails — artifacts are immutable by contract.
func (r *Registry) Instance(tenant string, version int) (*Instance, error) {
	r.mu.Lock()
	art, ok := r.artifactLocked(tenant, version)
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: no version %d for tenant %q", version, tenant)
	}
	if e, ok := r.warm[keyOf(tenant, version)]; ok {
		r.touch(e)
		inst := e.inst
		r.mu.Unlock()
		return inst, nil
	}
	r.mu.Unlock()

	sha, err := obs.HashFile(art.Path)
	if err != nil {
		return nil, fmt.Errorf("registry: rehydrating %s: %w", art.Ref(), err)
	}
	if sha != art.SHA256 {
		return nil, fmt.Errorf("registry: artifact %s changed on disk (sha256 %.12s, registered %.12s)",
			art.Path, sha, art.SHA256)
	}
	m, err := core.LoadModelFile(art.Path)
	if err != nil {
		return nil, fmt.Errorf("registry: rehydrating %s: %w", art.Ref(), err)
	}
	inst := NewInstance(art, m, time.Now())

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.warm[keyOf(tenant, version)]; ok { // lost a reload race
		r.touch(e)
		return e.inst, nil
	}
	r.insert(inst)
	return inst, nil
}

func (r *Registry) artifactLocked(tenant string, version int) (Artifact, bool) {
	versions := r.tenants[tenant]
	if version < 1 || version > len(versions) {
		return Artifact{}, false
	}
	return versions[version-1], true
}

// Artifact returns the metadata of tenant@version without loading weights.
func (r *Registry) Artifact(tenant string, version int) (Artifact, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.artifactLocked(tenant, version)
}

// Tenants lists tenant names, sorted.
func (r *Registry) Tenants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Artifacts lists every registered artifact, ordered by tenant then version.
func (r *Registry) Artifacts() []Artifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Artifact
	for _, name := range names {
		out = append(out, r.tenants[name]...)
	}
	return out
}

// WarmCount reports how many instances are currently loaded.
func (r *Registry) WarmCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.warm)
}

// insert adds a warm entry at the LRU head, evicting the tail beyond
// capacity. Callers hold r.mu.
func (r *Registry) insert(inst *Instance) {
	e := &warmEntry{key: keyOf(inst.Tenant, inst.Version), inst: inst}
	r.warm[e.key] = e
	r.pushFront(e)
	for len(r.warm) > r.capacity {
		victim := r.tail
		r.unlink(victim)
		delete(r.warm, victim.key)
	}
}

// touch moves e to the LRU head. Callers hold r.mu.
func (r *Registry) touch(e *warmEntry) {
	r.unlink(e)
	r.pushFront(e)
}

func (r *Registry) pushFront(e *warmEntry) {
	e.prev, e.next = nil, r.head
	if r.head != nil {
		r.head.prev = e
	}
	r.head = e
	if r.tail == nil {
		r.tail = e
	}
}

func (r *Registry) unlink(e *warmEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if r.head == e {
		r.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if r.tail == e {
		r.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
