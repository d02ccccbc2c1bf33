package jobs

// Wire-format goldens: for every job kind, the Spec a coordinator serves
// (kind, config bytes, resume fingerprint) and one task's payload bytes are
// pinned in testdata/wire.golden.json. A changed byte here means workers and
// coordinators of different revisions no longer interoperate, and a
// dist-state.jsonl journal written by an older coordinator no longer
// resumes. Regenerate with -update-wire only for a deliberate wire change.

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nnwc/internal/dist"
	"nnwc/internal/obs"
	"nnwc/internal/surface"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden.json")

const wireGoldenPath = "testdata/wire.golden.json"

// wireGolden is one kind's pinned wire form.
type wireGolden struct {
	Kind        string `json:"kind"`
	Seed        uint64 `json:"seed"`
	NumTasks    int    `json:"num_tasks"`
	Config      string `json:"config"`
	Fingerprint string `json:"fingerprint"`
	Payload0    string `json:"payload0"`
}

// mapEnv resolves artifacts by hash to local files.
type mapEnv map[string]string

func (e mapEnv) ArtifactPath(_ context.Context, sha string) (string, error) {
	return e[sha], nil
}

// servedSpec starts a coordinator through run, reads the Spec it serves on
// /dist/job, and stops it before any worker connects.
func servedSpec(t *testing.T, run func(ctx context.Context, opt Options) error) dist.Spec {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var spec dist.Spec
	var fetchErr error
	opt := Options{
		Addr:  "127.0.0.1:0",
		JobID: "wire-golden",
		OnStart: func(addr string) {
			defer cancel()
			client := &http.Client{Timeout: 10 * time.Second}
			resp, err := client.Get("http://" + addr + "/dist/job")
			if err != nil {
				fetchErr = err
				return
			}
			defer resp.Body.Close()
			fetchErr = json.NewDecoder(resp.Body).Decode(&spec)
		},
	}
	run(ctx, opt) // ends with the cancellation once the spec is read
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if spec.Kind == "" {
		t.Fatal("coordinator served no spec")
	}
	return spec
}

func TestWireFormatGolden(t *testing.T) {
	csvPath := writeParityCSV(t)
	modelPath, err := filepath.Abs("../../core/testdata/golden_model.json")
	if err != nil {
		t.Fatal(err)
	}
	env := mapEnv{}
	for _, p := range []string{csvPath, modelPath} {
		sha, err := obs.HashFile(p)
		if err != nil {
			t.Fatal(err)
		}
		env[sha] = p
	}
	sl := surface.Slice{
		Fixed:   []float64{0, 0},
		XIndex:  0,
		YIndex:  1,
		XValues: surface.Linspace(-2, 2, 3),
		YValues: surface.Linspace(-2, 2, 4),
		Output:  1,
	}
	runs := []struct {
		kind string
		run  func(ctx context.Context, opt Options) error
	}{
		{KindCrossval, func(ctx context.Context, opt Options) error {
			_, _, err := CoordinateCrossval(ctx, opt, csvPath, 4, "6", 30, 7)
			return err
		}},
		{KindCompare, func(ctx context.Context, opt Options) error {
			j, err := CompareJob(csvPath, CompareConfig{K: 4, Hidden: "6", Epochs: 30}, 7)
			if err == nil {
				_, _, err = Execute(ctx, opt, j)
			}
			return err
		}},
		{KindSurface, func(ctx context.Context, opt Options) error {
			j, err := SurfaceJob(modelPath, sl)
			if err == nil {
				_, _, err = Execute(ctx, opt, j)
			}
			return err
		}},
		{KindImportance, func(ctx context.Context, opt Options) error {
			j, err := ImportanceJob(modelPath, csvPath, ImportanceConfig{Repeats: 2}, 9)
			if err == nil {
				_, _, err = Execute(ctx, opt, j)
			}
			return err
		}},
		{KindSelect, func(ctx context.Context, opt Options) error {
			j, err := SelectJob(csvPath, SelectConfig{K: 3, Epochs: 20, Candidates: [][]int{{3}, {4, 2}}}, 13)
			if err == nil {
				_, _, err = Execute(ctx, opt, j)
			}
			return err
		}},
	}
	runners := Runners()
	var got []wireGolden
	for _, r := range runs {
		spec := servedSpec(t, r.run)
		payload, err := runners[spec.Kind](context.Background(), env, spec, 0)
		if err != nil {
			t.Fatalf("%s task 0: %v", r.kind, err)
		}
		got = append(got, wireGolden{
			Kind:        spec.Kind,
			Seed:        spec.Seed,
			NumTasks:    spec.NumTasks,
			Config:      string(spec.Config),
			Fingerprint: spec.Fingerprint(),
			Payload0:    string(payload),
		})
	}
	if *updateWire {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []wireGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d kinds pinned, %d served", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s wire form moved:\ngot  %+v\nwant %+v", want[i].Kind, got[i], want[i])
		}
	}
}
