package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/serve/registry"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// testClient bounds every test request so a serve-plane regression that
// stalls a response fails fast with a clear deadline error instead of
// hanging the test (and CI) until the suite timeout.
var testClient = &http.Client{Timeout: 10 * time.Second}

// trainTestModel fits a small 2→2 model on a smooth function — fast enough
// for a unit test, real enough to exercise scalers and the batched path.
func trainTestModel(t testing.TB, seed uint64) *core.NNModel {
	return trainTestModelWith(t, core.Config{Hidden: []int{6}, Seed: seed})
}

// trainTestModelWith fits trainTestModel's data with the given model
// configuration.
func trainTestModelWith(t testing.TB, cfg core.Config) *core.NNModel {
	t.Helper()
	ds := workload.NewDataset([]string{"a", "b"}, []string{"u", "v"})
	for i := 0; i < 40; i++ {
		a := float64(i%8) - 4
		b := float64(i/8) - 2
		ds.MustAppend(workload.Sample{
			X: []float64{a, b},
			Y: []float64{10 + a*a - b, 5 + a + 2*b},
		})
	}
	tc := train.DefaultConfig()
	tc.MaxEpochs = 150
	cfg.Train = &tc
	model, err := core.Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// writeTestModel persists a freshly trained model and returns its path.
func writeTestModel(t testing.TB, dir string, seed uint64) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("model-%d.json", seed))
	if err := trainTestModel(t, seed).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, string) {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.(string); ok {
		rd = bytes.NewReader([]byte(raw))
	} else {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	resp, err := testClient.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.String()
}

// PredictResponse is the /predict reply the handler's hand-written codec
// writes: Predictions[i][j] is indicator j (TargetNames[j]) for input row
// i, in native units. Tests decode replies into it, and the codec is held
// to encoding/json's rendering of it.
type PredictResponse struct {
	Predictions [][]float64 `json:"predictions"`
	TargetNames []string    `json:"target_names"`
	Warnings    []string    `json:"warnings,omitempty"`
	Model       ModelInfo   `json:"model"`
}

func postPredict(t *testing.T, url string, body any) (*http.Response, PredictResponse, string) {
	t.Helper()
	resp, raw := postJSON(t, url+"/predict", body)
	var pr PredictResponse
	json.Unmarshal([]byte(raw), &pr)
	return resp, pr, raw
}

func getFleet(t *testing.T, url string) FleetStatus {
	t.Helper()
	resp, err := testClient.Get(url + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /fleet: %v", err)
	}
	return st
}

// TestServeEndToEnd trains, persists, serves, and checks the HTTP answer
// matches the in-process model prediction exactly.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := writeTestModel(t, dir, 1)
	s, ts := newTestServer(t, Config{ModelPath: path, MaxBatch: 8})

	model, err := core.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1.5, -0.5}
	want := model.Predict(x)

	resp, pr, raw := postPredict(t, ts.URL, PredictRequest{X: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(pr.Predictions) != 1 || len(pr.Predictions[0]) != len(want) {
		t.Fatalf("prediction shape %v", pr.Predictions)
	}
	for j := range want {
		if math.Abs(pr.Predictions[0][j]-want[j]) > 1e-9 {
			t.Fatalf("served prediction %v, want %v", pr.Predictions[0], want)
		}
	}
	if len(pr.TargetNames) != 2 || pr.TargetNames[0] != "u" {
		t.Fatalf("target names %v", pr.TargetNames)
	}
	if pr.Model.Path != path {
		t.Fatalf("model path %q", pr.Model.Path)
	}
	if pr.Model.Ref != "default@v1" || pr.Model.SHA256 == "" || pr.Model.Shape != "2-6-2" {
		t.Fatalf("model identity %+v, want default@v1 with sha and shape 2-6-2", pr.Model)
	}
	_ = s
}

// TestServeInstancesAndWarnings: multi-row requests work, and rows outside
// the training envelope come back with warnings but still predict.
func TestServeInstancesAndWarnings(t *testing.T) {
	path := writeTestModel(t, t.TempDir(), 2)
	_, ts := newTestServer(t, Config{ModelPath: path})

	resp, pr, raw := postPredict(t, ts.URL, PredictRequest{Instances: [][]float64{
		{0, 0},
		{100, 100}, // far outside the training envelope
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(pr.Predictions) != 2 {
		t.Fatalf("want 2 predictions, got %d", len(pr.Predictions))
	}
	if len(pr.Warnings) == 0 {
		t.Fatalf("expected envelope warnings, got none (%s)", raw)
	}
	if !strings.Contains(pr.Warnings[0], "outside training envelope") {
		t.Fatalf("warning %q", pr.Warnings[0])
	}
}

// TestServeRequestLargerThanQueue: a request with more rows than
// QueueDepth is served on an idle server, not shed with a 429.
func TestServeRequestLargerThanQueue(t *testing.T) {
	path := writeTestModel(t, t.TempDir(), 2)
	_, ts := newTestServer(t, Config{ModelPath: path, QueueDepth: 2, MaxBatch: 1})

	resp, pr, raw := postPredict(t, ts.URL, PredictRequest{Instances: [][]float64{{0, 0}, {1, 0}, {0, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("QueueDepth+1 rows: status %d: %s", resp.StatusCode, raw)
	}
	if len(pr.Predictions) != 3 {
		t.Fatalf("want 3 predictions, got %d", len(pr.Predictions))
	}
}

// TestServeValidation: bad dimensionality and non-finite inputs are 400s,
// and both are counted on the error surface.
func TestServeValidation(t *testing.T) {
	path := writeTestModel(t, t.TempDir(), 3)
	_, ts := newTestServer(t, Config{ModelPath: path})

	cases := []struct {
		name string
		body string
	}{
		{"wrong dims", `{"x":[1,2,3]}`},
		{"both x and instances", `{"x":[1,2],"instances":[[1,2]]}`},
		{"neither", `{}`},
		{"unknown field", `{"vector":[1,2]}`},
		{"bad json", `{"x":[1,2`},
	}
	for _, c := range cases {
		resp, err := testClient.Post(ts.URL+"/predict", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// An unknown model reference is a 404, a malformed one a 400.
	resp, _, _ := postPredict(t, ts.URL, PredictRequest{Model: "nosuch", X: []float64{1, 2}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/predict", `{"model":"default@vx","x":[1,2]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed ref: status %d, want 400", resp.StatusCode)
	}

	// JSON cannot carry NaN literally; exercise the finiteness check
	// through the validation helper directly.
	inst := &registry.Instance{Artifact: registry.Artifact{
		Tenant: "t", Version: 1, InputDim: 2, FeatureNames: []string{"a", "b"},
	}}
	if _, err := validateRows(inst, [][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN input accepted")
	}
	if _, err := validateRows(inst, [][]float64{{math.Inf(1), 0}}); err == nil {
		t.Fatal("Inf input accepted")
	}
}

// heldPredictor holds the first batch any of its copies serves until
// release closes, after signalling entered: requests sent meanwhile queue
// behind a busy runner, whatever the scheduler does.
type heldPredictor struct {
	core.BatchPredictor
	once             *sync.Once
	entered, release chan struct{}
}

func (p *heldPredictor) PredictAll(xs [][]float64) [][]float64 {
	p.once.Do(func() {
		close(p.entered)
		<-p.release
	})
	return p.BatchPredictor.PredictAll(xs)
}

// holdLive wraps the live predictors of tenants, before any traffic flows,
// so that the first batch any of them serves waits for release.
func holdLive(s *Server, tenants ...string) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	once := new(sync.Once)
	for _, tenant := range tenants {
		live := s.ctl.Deployment(tenant).Live()
		live.Pred = &heldPredictor{BatchPredictor: live.Pred, once: once, entered: entered, release: release}
	}
	return entered, release
}

// waitQueued polls until s's batcher holds rows queued rows.
func waitQueued(t *testing.T, s *Server, rows int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.batcher.Queued() != rows {
		if time.Now().After(deadline) {
			t.Fatalf("%d rows queued, want %d", s.batcher.Queued(), rows)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCoalescerBatchesConcurrentRequests drives many concurrent requests
// at a server whose only runner is busy and asserts they were answered in
// fewer forward calls than requests — the micro-batcher actually
// coalesced.
func TestCoalescerBatchesConcurrentRequests(t *testing.T) {
	path := writeTestModel(t, t.TempDir(), 4)
	s, ts := newTestServer(t, Config{
		ModelPath: path,
		MaxBatch:  16,
		Workers:   1,
	})
	entered, release := holdLive(s, DefaultSingleTenant)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, raw := postPredict(t, ts.URL, PredictRequest{X: []float64{float64(i % 5), 1}})
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			}
		}()
	}
	post(0)
	<-entered
	for i := 1; i < n; i++ {
		post(i)
	}
	waitQueued(t, s, n-1)
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	batches, rows := s.metrics.batchStats()
	if rows != n {
		t.Fatalf("rows inferred = %d, want %d", rows, n)
	}
	if batches >= n {
		t.Fatalf("batches = %d for %d requests — no coalescing happened", batches, n)
	}
}

// TestCrossTenantCoalescing: two tenants whose networks share a topology
// land in ONE batch domain and fill batches together.
func TestCrossTenantCoalescing(t *testing.T) {
	dir := t.TempDir()
	models := map[string]string{
		"web": writeTestModel(t, dir, 10),
		"db":  writeTestModel(t, dir, 11),
	}

	s, ts := newTestServer(t, Config{
		Models:   models,
		MaxBatch: 32,
		Workers:  1,
	})
	entered, release := holdLive(s, "web", "db")

	const perTenant = 8
	var wg sync.WaitGroup
	errs := make([]error, 2*perTenant)
	post := func(slot int, tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, pr, raw := postPredict(t, ts.URL, PredictRequest{Model: tenant, X: []float64{1, 1}})
			if resp.StatusCode != http.StatusOK {
				errs[slot] = fmt.Errorf("%s: status %d: %s", tenant, resp.StatusCode, raw)
				return
			}
			if !strings.HasPrefix(pr.Model.Ref, tenant+"@") {
				errs[slot] = fmt.Errorf("asked %s, answered by %s", tenant, pr.Model.Ref)
			}
		}()
	}
	// The first request holds the shared batch domain's only runner while
	// both tenants' other requests queue behind it.
	post(0, "web")
	<-entered
	for slot := 1; slot < 2*perTenant; slot++ {
		post(slot, []string{"web", "db"}[slot%2])
	}
	waitQueued(t, s, 2*perTenant-1)
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if groups := s.batcher.GroupCount(); groups != 1 {
		t.Fatalf("shape-shared tenants created %d batch groups, want 1", groups)
	}
	batches, rows := s.metrics.batchStats()
	if rows != 2*perTenant {
		t.Fatalf("rows inferred = %d, want %d", rows, 2*perTenant)
	}
	if batches >= 2*perTenant {
		t.Fatalf("batches = %d for %d requests — no cross-tenant coalescing", batches, 2*perTenant)
	}
}

// TestFleetLifecycle exercises the canary flow over HTTP: deploy a canary,
// watch /fleet report it, promote it, roll it back, and pin old versions.
func TestFleetLifecycle(t *testing.T) {
	dir := t.TempDir()
	pathA := writeTestModel(t, dir, 20)
	pathB := writeTestModel(t, dir, 21)
	_, ts := newTestServer(t, Config{
		Models: map[string]string{"web": pathA},
	})

	// Stage B as a canary.
	resp, raw := postJSON(t, ts.URL+"/fleet/deploy", fleetRequest{Model: "web", Path: pathB, Canary: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canary deploy: status %d: %s", resp.StatusCode, raw)
	}
	st := getFleet(t, ts.URL)
	if len(st.Tenants) != 1 || st.Tenants[0].LiveVersion != 1 || st.Tenants[0].ShadowVer != 2 {
		t.Fatalf("fleet after canary = %+v, want live v1 shadow v2", st.Tenants)
	}

	// Live traffic is mirrored to the shadow: divergence fills in.
	for i := 0; i < 4; i++ {
		resp, pr, raw := postPredict(t, ts.URL, PredictRequest{Model: "web", X: []float64{float64(i), 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: status %d: %s", resp.StatusCode, raw)
		}
		if pr.Model.Version != 1 {
			t.Fatalf("canary served live traffic: %+v", pr.Model)
		}
	}
	st = getFleet(t, ts.URL)
	if st.Tenants[0].Divergence == nil {
		t.Fatal("no shadow divergence recorded from mirrored traffic")
	}

	// Observations feed rolling HMRE for live and shadow.
	resp, raw = postJSON(t, ts.URL+"/observe", ObserveRequest{Model: "web", X: []float64{1, 1}, Actual: []float64{10, 8}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: status %d: %s", resp.StatusCode, raw)
	}
	var or ObserveResponse
	json.Unmarshal([]byte(raw), &or)
	if or.LiveHMRE == nil || or.ShadowHMRE == nil {
		t.Fatalf("observe response missing HMRE: %s", raw)
	}

	// Promote: v2 goes live, v1 stays pinnable.
	resp, raw = postJSON(t, ts.URL+"/fleet/promote", fleetRequest{Model: "web"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d: %s", resp.StatusCode, raw)
	}
	st = getFleet(t, ts.URL)
	if st.Tenants[0].LiveVersion != 2 || st.Tenants[0].ShadowVer != 0 || st.Tenants[0].Promotions != 1 {
		t.Fatalf("fleet after promote = %+v", st.Tenants[0])
	}
	resp, pr, raw := postPredict(t, ts.URL, PredictRequest{Model: "web@v1", X: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK || pr.Model.Ref != "web@v1" {
		t.Fatalf("pinned v1 after promote: status %d model %q (%s)", resp.StatusCode, pr.Model.Ref, raw)
	}

	// Rollback: live reverts to v1.
	resp, raw = postJSON(t, ts.URL+"/fleet/rollback", fleetRequest{Model: "web"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d: %s", resp.StatusCode, raw)
	}
	st = getFleet(t, ts.URL)
	if st.Tenants[0].LiveVersion != 1 || st.Tenants[0].Rollbacks != 1 {
		t.Fatalf("fleet after rollback = %+v", st.Tenants[0])
	}
	// A second rollback has nowhere to go.
	resp, _ = postJSON(t, ts.URL+"/fleet/rollback", fleetRequest{Model: "web"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double rollback: status %d, want 409", resp.StatusCode)
	}
}

// slowPredictor delays inference so shutdown and admission control have
// something to race against.
type slowPredictor struct {
	inner core.BatchPredictor
	delay time.Duration
}

func (p *slowPredictor) PredictAll(xs [][]float64) [][]float64 {
	time.Sleep(p.delay)
	return p.inner.PredictAll(xs)
}

func (p *slowPredictor) Predict(x []float64) []float64 {
	time.Sleep(p.delay)
	return p.inner.Predict(x)
}

// slowDownLive wraps a tenant's live predictor before any traffic flows.
func slowDownLive(s *Server, tenant string, delay time.Duration) {
	live := s.ctl.Deployment(tenant).Live()
	live.Pred = &slowPredictor{inner: live.Pred, delay: delay}
}

// TestGracefulShutdownDrainsInFlight: requests in flight when Shutdown is
// called complete with 200s; requests arriving after the drain starts are
// refused.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	path := writeTestModel(t, t.TempDir(), 5)
	s, err := New(Config{ModelPath: path, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	// Slow the model down so requests are genuinely in flight mid-drain.
	slowDownLive(s, DefaultSingleTenant, 80*time.Millisecond)

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr()

	const n = 4
	codes := make([]int, n)
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := testClient.Post(url+"/predict", "application/json", strings.NewReader(`{"x":[1,2]}`))
			if err != nil {
				codes[i] = -1
				bodies[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			codes[i] = resp.StatusCode
			bodies[i] = buf.String()
		}(i)
	}
	time.Sleep(30 * time.Millisecond) // let the requests reach inference

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("in-flight request %d got %d (%s), want 200", i, code, bodies[i])
		}
	}

	// The listener is closed now: new requests must fail at the wire.
	if _, err := testClient.Post(url+"/predict", "application/json", strings.NewReader(`{"x":[1,2]}`)); err == nil {
		t.Fatal("request after shutdown succeeded")
	}
}

// TestWaitReturnsAfterShutdown: a clean Shutdown must unblock Wait with a
// nil error — the listener closing via http.ErrServerClosed is a normal
// stop, not a failure. Regression test for the hang where Wait blocked
// forever after drains.
func TestWaitReturnsAfterShutdown(t *testing.T) {
	path := writeTestModel(t, t.TempDir(), 9)
	s, err := New(Config{ModelPath: path, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- s.Wait() }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("Wait after clean Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked 5s after a clean Shutdown")
	}
}

// TestInflightBudgetSheds: with a per-tenant in-flight budget of 1 and a
// slow model, a burst of concurrent requests is partially shed with 429s —
// and everything is either served or shed, never errored.
func TestInflightBudgetSheds(t *testing.T) {
	path := writeTestModel(t, t.TempDir(), 8)
	s, ts := newTestServer(t, Config{
		ModelPath:   path,
		MaxInflight: 1,
	})
	slowDownLive(s, DefaultSingleTenant, 50*time.Millisecond)

	const n = 8
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, _ := postPredict(t, ts.URL, PredictRequest{X: []float64{1, 1}})
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	if ok == 0 {
		t.Fatal("every request was shed — budget admitted nothing")
	}
	if shed == 0 {
		t.Fatalf("no request was shed at budget 1 with %d concurrent", n)
	}
	if got := counterSample(t, s, `nnwc_tenant_shed_total{model="`+DefaultSingleTenant+`",reason="inflight_budget"}`); got != uint64(shed) {
		t.Fatalf("shed counter = %v, want %d", got, shed)
	}
}

// TestHotReloadAtomicity hammers /predict while the artifact on disk is
// rewritten and /-/reload fired repeatedly. Every response must be a 200
// with finite outputs, and the reload counter must reflect every swap.
// Run with -race: this is the atomicity test.
func TestHotReloadAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := writeTestModel(t, dir, 6)
	s, ts := newTestServer(t, Config{ModelPath: path})

	// Two alternating artifacts with identical schema, different weights.
	modelA := trainTestModel(t, 6)
	modelB := trainTestModel(t, 77)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var badMu sync.Mutex
	var bad []string
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, pr, raw := postPredict(t, ts.URL, PredictRequest{X: []float64{1, 1}})
				if resp.StatusCode != http.StatusOK {
					badMu.Lock()
					bad = append(bad, fmt.Sprintf("status %d: %s", resp.StatusCode, raw))
					badMu.Unlock()
					return
				}
				for _, v := range pr.Predictions[0] {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						badMu.Lock()
						bad = append(bad, fmt.Sprintf("non-finite prediction %v", pr.Predictions[0]))
						badMu.Unlock()
						return
					}
				}
			}
		}()
	}

	const reloads = 20
	for i := 0; i < reloads; i++ {
		m := modelA
		if i%2 == 0 {
			m = modelB
		}
		if err := m.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		resp, err := testClient.Post(ts.URL+"/-/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("prediction failures during reload: %v", bad[0])
	}

	gotReloads := counterSample(t, s, "nnwc_model_reloads_total")
	if gotReloads != reloads {
		t.Fatalf("reload counter = %d, want %d", gotReloads, reloads)
	}
	// Content-addressing: 20 reloads over 2 distinct artifacts (plus the
	// initial, which shares modelA's bytes) registered exactly 2 versions.
	arts := s.reg.Artifacts()
	if len(arts) != 2 {
		t.Fatalf("registry holds %d versions after alternating reloads, want 2", len(arts))
	}
}

// TestMetricsSchema pins the names and shape of the /metrics exposition.
func TestMetricsSchema(t *testing.T) {
	// The model's path lands in a label value: a tab, quote and backslash
	// in it must render with the text format's escapes only.
	dir := filepath.Join(t.TempDir(), "a\t\"b\\c")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := writeTestModel(t, dir, 7)
	_, ts := newTestServer(t, Config{ModelPath: path})

	for i := 0; i < 3; i++ {
		resp, _, _ := postPredict(t, ts.URL, PredictRequest{X: []float64{1, 2}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}
	// One rejected request so the error counter shows up.
	resp, err := testClient.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"x":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = testClient.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	wants := []string{
		`nnwc_requests_total{endpoint="predict",code="200"} 3`,
		`nnwc_requests_total{endpoint="predict",code="400"} 1`,
		`nnwc_request_errors_total{reason="bad_input"} 1`,
		`nnwc_request_latency_seconds_bucket{le="1e-05"}`,
		`nnwc_request_latency_seconds_bucket{le="+Inf"} 4`,
		`nnwc_request_latency_seconds_sum`,
		`nnwc_request_latency_seconds_count 4`,
		`nnwc_batch_size_bucket{le="1"} 3`,
		`nnwc_batch_size_bucket{le="128"} 3`,
		`nnwc_batch_size_bucket{le="+Inf"} 3`,
		`nnwc_batch_size_sum 3`,
		`nnwc_batch_size_count 3`,
		`nnwc_model_reloads_total 0`,
		`nnwc_inflight_requests 0`,
		`nnwc_tenant_requests_total{model="default",code="200"} 3`,
		`nnwc_tenant_requests_total{model="default",code="400"} 1`,
		`nnwc_tenant_latency_seconds_bucket{model="default",le="1e-05"}`,
		`nnwc_tenant_latency_seconds_bucket{model="default",le="+Inf"} 3`,
		`nnwc_tenant_latency_seconds_sum{model="default"}`,
		`nnwc_tenant_latency_seconds_count{model="default"} 3`,
		`nnwc_tenant_inflight_requests{model="default"} 0`,
		`nnwc_fleet_events_total{model="default",action="deploy"} 1`,
		`nnwc_registry_warm_models 1`,
		`nnwc_batch_groups 1`,
		`nnwc_batch_queued_rows 0`,
		`nnwc_model_loaded_timestamp_seconds`,
		`nnwc_model_info{path="` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(path) + `",`,
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, body)
		}
	}
	if strings.Contains(body, "quantile=") {
		t.Errorf("metrics output renders a summary quantile:\n%s", body)
	}
}

// TestHealthAndReadiness: healthz is always up; readyz tracks model
// presence and draining.
func TestHealthAndReadiness(t *testing.T) {
	// No model configured: healthy but not ready.
	s, ts := newTestServer(t, Config{})
	for path, want := range map[string]int{
		"/healthz": http.StatusOK,
		"/readyz":  http.StatusServiceUnavailable,
	} {
		resp, err := testClient.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	// Predicts are refused without a model.
	resp, err := testClient.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"x":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict without model = %d, want 503", resp.StatusCode)
	}

	// Draining flips readiness.
	s.draining.Store(true)
	resp, err = testClient.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestQueuedRequestDeadlines: while the batch domain's only runner is
// busy, a queued request is shed with a 429 once its latency budget has
// passed, or answered 504 once RequestTimeout has; the held request then
// completes and the domain serves the next request at once.
func TestQueuedRequestDeadlines(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		code   int
		series string
	}{
		{"latency-budget", Config{LatencyBudget: 20 * time.Millisecond}, http.StatusTooManyRequests,
			`nnwc_tenant_shed_total{model="` + DefaultSingleTenant + `",reason="latency_budget"}`},
		{"timeout", Config{RequestTimeout: 20 * time.Millisecond}, http.StatusGatewayTimeout,
			`nnwc_request_errors_total{reason="timeout"}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.ModelPath = writeTestModel(t, t.TempDir(), 12)
			cfg.Workers = 1
			s, ts := newTestServer(t, cfg)
			entered, release := holdLive(s, DefaultSingleTenant)
			held := make(chan int, 1)
			go func() {
				resp, err := testClient.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"x":[1,1]}`))
				if err != nil {
					held <- -1
					return
				}
				resp.Body.Close()
				held <- resp.StatusCode
			}()
			<-entered
			resp, _, raw := postPredict(t, ts.URL, PredictRequest{X: []float64{2, 1}})
			if resp.StatusCode != c.code {
				t.Fatalf("queued past its deadline: status %d (%s), want %d", resp.StatusCode, raw, c.code)
			}
			if got := counterSample(t, s, c.series); got != 1 {
				t.Fatalf("%s counted %d times, want 1", c.name, got)
			}
			close(release)
			if code := <-held; code != http.StatusOK {
				t.Fatalf("held request: status %d, want 200", code)
			}
			if resp, _, raw := postPredict(t, ts.URL, PredictRequest{X: []float64{3, 1}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("next request: status %d (%s), want 200", resp.StatusCode, raw)
			}
		})
	}
}

// TestShutdownLeavesNoGoroutines: a server that served live, pinned and
// mirrored canary traffic over real connections leaves the goroutine
// count where it found it once the client's idle connections close and
// Shutdown returns.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	dir := t.TempDir()
	pathA, pathB := writeTestModel(t, dir, 40), writeTestModel(t, dir, 41)
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	baseline := runtime.NumGoroutine()

	s, err := New(Config{Models: map[string]string{"web": pathA}, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ctl.Deploy("web", pathB, true); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr() + "/predict"
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf(`{"model":%q,"instances":[[%d,1],[1,%d]]}`, []string{"web", "web@v1"}[i%2], i%5, c)
				resp, err := client.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Close the client side first: http.Server.Shutdown waits up to 5 s
	// for a connection the transport dialed but never sent a request on,
	// and one such dial may still land after this.
	tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Shutdown, %d before the server started:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// counterSample reads one counter sample from s's metrics exposition:
// series is the sample's name with its rendered labels. An absent series
// reads 0.
func counterSample(t *testing.T, s *Server, series string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	s.metrics.reg.Write(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", line, err)
			}
			return n
		}
	}
	return 0
}
