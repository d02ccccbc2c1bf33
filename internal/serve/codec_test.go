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
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/nn"
	"nnwc/internal/serve/registry"
)

// decodeWithJSON is the reference /predict decoder: json.Decoder with
// DisallowUnknownFields reading a body capped at limit bytes.
func decodeWithJSON(body []byte, limit int64) (PredictRequest, error) {
	var req PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// decodeWithCodec is the handler's decoder on the same capped body.
func decodeWithCodec(body []byte, limit int64) (PredictRequest, error) {
	var req PredictRequest
	var d predictDecoder
	var data bytes.Buffer
	_, readErr := data.ReadFrom(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	err := d.decode(data.Bytes(), readErr != nil, &req)
	return req, err
}

// sameFloats requires equal nil-ness, length and bits.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRequest(a, b PredictRequest) bool {
	if a.Model != b.Model || !sameFloats(a.X, b.X) ||
		(a.Instances == nil) != (b.Instances == nil) || len(a.Instances) != len(b.Instances) {
		return false
	}
	for i := range a.Instances {
		if !sameFloats(a.Instances[i], b.Instances[i]) {
			return false
		}
	}
	return true
}

// checkDecodersAgree requires the codec to accept exactly the bodies
// encoding/json accepts, with identical values.
func checkDecodersAgree(t *testing.T, body []byte, limit int64) {
	t.Helper()
	want, wantErr := decodeWithJSON(body, limit)
	got, gotErr := decodeWithCodec(body, limit)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("body %q (limit %d): encoding/json error %v, codec error %v", body, limit, wantErr, gotErr)
	case wantErr == nil && !sameRequest(got, want):
		t.Fatalf("body %q (limit %d): codec decoded %#v, encoding/json %#v", body, limit, got, want)
	}
}

// FuzzPredictBody pins the /predict decoder to encoding/json: every body
// is accepted or rejected alike, with identical values, whole and cut
// short by the body-size cap; and the real handler answers every body
// without a panic or an unexpected 5xx.
func FuzzPredictBody(f *testing.F) {
	f.Add([]byte(`{"x":[1,2]}`))
	f.Add([]byte(`{"model":"default","instances":[[1,2],[3,4]]}`))
	path := writeTestModel(f, f.TempDir(), 1)
	s, err := New(Config{ModelPath: path})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		if int64(len(body)) > maxBodyBytes {
			return
		}
		checkDecodersAgree(t, body, maxBodyBytes)
		checkDecodersAgree(t, body, int64(len(body)/2))

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if rec.Code >= 500 && !strings.Contains(rec.Body.String(), errNonFinite.Error()) {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
		}
	})
}

// TestDecodeCostFollowsParsedBytes: the decoder's time and memory grow
// with the bytes it parses, never with the bytes left in the body. Bodies
// near the 1 MiB cap that repeat an empty "instances" array, or end in a
// long run of brackets or commas after the first value, decode in a few
// kilobytes.
func TestDecodeCostFollowsParsedBytes(t *testing.T) {
	const size = 1 << 20
	repeat := func(s string) string { return strings.Repeat(s, size/len(s)) }
	bodies := map[string]string{
		"repeated empty instances": `{` + repeat(`"instances":[],`) + `"x":[1]}`,
		"repeated null instances":  `{` + repeat(`"instances":null,`) + `"x":[1]}`,
		"trailing brackets":        `{"instances":[[1]]}` + repeat(`[`),
		"trailing commas":          `{"x":[1]}` + repeat(`,`),
	}
	const maxAlloc = 64 << 10
	for name, body := range bodies {
		data := []byte(body)
		if _, err := decodeWithJSON(data, size*2); err != nil {
			t.Fatalf("%s: encoding/json rejects the body: %v", name, err)
		}
		var d predictDecoder
		var req PredictRequest
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := d.decode(data, false, &req)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxAlloc {
			t.Errorf("%s: decoding allocated %d bytes, want at most %d", name, alloc, maxAlloc)
		}
		if elapsed > time.Second {
			t.Errorf("%s: decoding took %s, want well under a second", name, elapsed)
		}
	}
}

// TestPredictResponseWireIdentity: the hand-written encoder writes the
// bytes json.Encoder writes for the same PredictResponse.
func TestPredictResponseWireIdentity(t *testing.T) {
	inst := registry.NewInstance(registry.Artifact{
		Tenant:       "web",
		Version:      3,
		SHA256:       "0123456789abcdef",
		Path:         `/models/"quoted" modèle ☃ <v2>.json`,
		InputDim:     2,
		OutputDim:    2,
		FeatureNames: []string{"rate", "größe"},
		TargetNames:  []string{"u<&>", "v\u2028w"},
		Shape:        "2-6-2",
	}, nil, time.Date(2026, 1, 2, 3, 4, 5, 6, time.FixedZone("x", 3600)))
	bare := registry.NewInstance(registry.Artifact{Tenant: "bare", Version: 1}, nil, time.Time{})

	values := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e21, 1e20, math.MaxFloat64,
		-math.MaxFloat64, 1.0 / 3, -2.5, 123456789, 1e-300}
	cases := []struct {
		inst     *registry.Instance
		preds    [][]float64
		warnings []string
	}{
		{inst, [][]float64{values}, nil},
		{inst, [][]float64{{1, 2}, {3, 4}}, []string{}},
		{inst, [][]float64{{1}, nil, {}}, []string{"a<b>&c", "line\u2028sep\u2029", "tab\tquote\"back\\slash\x01\x7f", "bad\xffutf8 é"}},
		{bare, nil, []string{"x"}},
	}
	for i, c := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(PredictResponse{
			Predictions: c.preds,
			TargetNames: c.inst.TargetNames,
			Warnings:    c.warnings,
			Model:       c.inst.Info(),
		}); err != nil {
			t.Fatal(err)
		}
		got, err := appendPredictResponse(nil, c.preds, c.inst, c.warnings)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want.Bytes())
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendPredictResponse(nil, [][]float64{{1, v}}, inst, nil); err != errNonFinite {
			t.Errorf("prediction %v encoded with error %v, want errNonFinite", v, err)
		}
	}
}

// TestNonFinitePredictionIs500: a prediction encoding/json cannot encode
// is answered with a 500 and a JSON error, and counted, instead of a 200
// with an empty body.
func TestNonFinitePredictionIs500(t *testing.T) {
	model := trainTestModelWith(t, core.Config{Hidden: []int{6}, HiddenActivation: nn.ReLU{}, Seed: 3})
	x := []float64{1e308, -1e308}
	if y := model.Predict(x); !math.IsInf(y[0], 0) && !math.IsNaN(y[0]) && !math.IsInf(y[1], 0) && !math.IsNaN(y[1]) {
		t.Fatalf("test premise: ReLU model predicts a finite %v for %v", y, x)
	}
	path := filepath.Join(t.TempDir(), "relu.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{ModelPath: path})

	resp, raw := postJSON(t, ts.URL+"/predict", `{"x":[1e308,-1e308]}`)
	var body errorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal([]byte(raw), &body) != nil || body.Error == "" {
		t.Fatalf("status %d, body %q; want 500 with a JSON error", resp.StatusCode, raw)
	}
	metrics, err := testClient.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	text, _ := io.ReadAll(metrics.Body)
	if want := `nnwc_request_errors_total{reason="non_finite_prediction"} 1`; !strings.Contains(string(text), want) {
		t.Fatalf("metrics missing %q", want)
	}
}

// TestBatchedRequestsGetTheirOwnRows: requests of 1 to 20 rows from two
// tenants sharing a shape queue behind a busy runner, coalesce (and split,
// past MaxBatch) in one batch group, and each request gets back its own
// rows, in order, bit-identical to its instance's PredictAll on that
// request alone.
func TestBatchedRequestsGetTheirOwnRows(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{
		Models:   map[string]string{"web": writeTestModel(t, dir, 30), "db": writeTestModel(t, dir, 31)},
		MaxBatch: 8,
		Workers:  1,
	})
	entered, release := holdLive(s, "web", "db")
	ctx := context.Background()
	// A one-row request holds the group's only runner while the others
	// queue.
	blocker := make(chan error, 1)
	go func() {
		_, err := s.PredictRef(ctx, "web", []float64{0, 0})
		blocker <- err
	}()
	<-entered
	var wg sync.WaitGroup
	const requests = 40
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		tenant := []string{"web", "db"}[i%2]
		inst, _, err := s.router.Resolve(tenant)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([][]float64, 1+i%20)
		for k := range xs {
			xs[k] = []float64{float64(i) - 20, float64(k) / 3}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ys, err := s.batcher.Submit(ctx, inst, xs, 0)
			if err != nil {
				errs[i] = err
				return
			}
			want := inst.Pred.PredictAll(xs)
			if len(ys) != len(want) {
				errs[i] = fmt.Errorf("request %d: %d rows back, want %d", i, len(ys), len(want))
				return
			}
			for k := range want {
				if !sameFloats(ys[k], want[k]) {
					errs[i] = fmt.Errorf("request %d (%s) row %d: got %v, want %v", i, tenant, k, ys[k], want[k])
					return
				}
			}
		}()
	}
	const queued = requests / 20 * (20 * 21 / 2)
	waitQueued(t, s, queued)
	close(release)
	wg.Wait()
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// A request travels as ceil(rows/MaxBatch) jobs: 72 for these 40, and
	// the blocker's one.
	batches, rows := s.metrics.batchStats()
	if batches >= 73 {
		t.Fatalf("%d forward calls for 73 jobs: no coalescing", batches)
	}
	if want := uint64(queued + 1); rows != want {
		t.Fatalf("rows inferred %d, want %d", rows, want)
	}
}

// predictAllocsPin is allocations per /predict through Handler() on an
// httptest recorder, request and recorder included, for a 1-row and a
// 16-row body.
var predictAllocsPin = map[string]float64{"1-row": 31, "16-row": 46}

// TestPredictHandlerAllocs pins the allocations of one served prediction.
func TestPredictHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	path := writeTestModel(t, t.TempDir(), 2)
	s, _ := newTestServer(t, Config{ModelPath: path, Workers: 1})
	h := s.Handler()
	var rows []string
	for k := 0; k < 16; k++ {
		rows = append(rows, fmt.Sprintf("[%d,%g]", k%8-4, float64(k)/8-1)) // inside the training envelope
	}
	bodies := map[string][]byte{
		"1-row":  []byte(`{"x":[1.5,-0.25]}`),
		"16-row": []byte(`{"instances":[` + strings.Join(rows, ",") + `]}`),
	}
	for name, body := range bodies {
		got := testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
			}
		})
		t.Logf("%s: %.0f allocations per request", name, got)
		if got > predictAllocsPin[name] {
			t.Errorf("%s: %.0f allocations per request, pinned at %.0f", name, got, predictAllocsPin[name])
		}
	}
}
