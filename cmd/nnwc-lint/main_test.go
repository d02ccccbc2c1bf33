package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureNames lists every self-test package under
// internal/analysis/testdata/src, in the order the golden file expects.
// The unreferenced fixture is a tree of packages, linted as one pattern.
var fixtureNames = []string{
	"ctxflow", "determinism", "errcheckresults", "floateq", "golifecycle",
	"hotpath", "lockhold", "maprange", "pooldiscipline", "sched",
	"unreferenced/...", "waiver",
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

func fixtureDirs(t *testing.T) []string {
	t.Helper()
	root := moduleRoot(t)
	var dirs []string
	for _, name := range fixtureNames {
		dirs = append(dirs, filepath.Join(root, "internal", "analysis", "testdata", "src", name))
	}
	return dirs
}

// TestExitCleanOnRepoTip pins exit code 0: the whole module under the
// checked-in lint.conf must be finding-free, or CI's `make lint` gate
// would fail.
func TestExitCleanOnRepoTip(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis is slow; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitClean, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", stdout.String())
	}
}

// TestExitFindingsOnFixtures pins exit code 1: every self-test fixture
// must produce findings under the empty policy.
func TestExitFindingsOnFixtures(t *testing.T) {
	conf := filepath.Join("testdata", "fixtures.conf")
	for i, dir := range fixtureDirs(t) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-conf", conf, dir}, &stdout, &stderr)
		if code != exitFindings {
			t.Errorf("fixture %s: exit = %d, want %d\nstderr:\n%s", fixtureNames[i], code, exitFindings, stderr.String())
		}
		if stdout.Len() == 0 {
			t.Errorf("fixture %s: no diagnostics printed", fixtureNames[i])
		}
	}
}

// TestUsageErrors pins exit code 2 for operator mistakes.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-rules", "nosuchrule", "./..."},
		{"-conf", filepath.Join("testdata", "no-such-file.conf"), "./..."},
		{filepath.Join("testdata")}, // directory without Go files
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%q) exit = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestListRules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != exitClean {
		t.Fatalf("-list exit = %d, want %d", code, exitClean)
	}
	for _, rule := range []string{
		"determinism", "sched", "maprange", "hotpath", "floateq",
		"ctxflow", "lockhold", "goroutine-lifecycle", "pooldiscipline", "errcheck-results",
		"unreferenced",
	} {
		if !strings.Contains(stdout.String(), rule) {
			t.Errorf("-list output missing rule %q:\n%s", rule, stdout.String())
		}
	}
}

// TestBuildTagExcludedFiles pins that a file gated behind an unsatisfied
// //go:build constraint is skipped entirely: testdata/src/tagged holds a
// deliberately type-broken excluded.go next to a clean tagged.go, and the
// package must lint clean.
func TestBuildTagExcludedFiles(t *testing.T) {
	conf := filepath.Join("testdata", "fixtures.conf")
	dir := filepath.Join("testdata", "src", "tagged")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-conf", conf, dir}, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitClean, stdout.String(), stderr.String())
	}
}

// TestLoadFailuresGolden pins the failure-path diagnostics: a package
// that does not type-check and a malformed lint.conf must both exit 2
// with positioned errors. Regenerate with -update.
func TestLoadFailuresGolden(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer

	var stdout, stderr bytes.Buffer
	code := run([]string{"-conf", filepath.Join("testdata", "fixtures.conf"), filepath.Join("testdata", "src", "typeerr")}, &stdout, &stderr)
	fmt.Fprintf(&out, "-- type error (exit %d) --\n%s", code, stderr.String())
	if code != exitUsage {
		t.Errorf("type-error fixture: exit = %d, want %d", code, exitUsage)
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-conf", filepath.Join("testdata", "malformed.conf"), filepath.Join("testdata", "src", "tagged")}, &stdout, &stderr)
	fmt.Fprintf(&out, "-- malformed conf (exit %d) --\n%s", code, stderr.String())
	if code != exitUsage {
		t.Errorf("malformed conf: exit = %d, want %d", code, exitUsage)
	}

	// Absolute checkout paths would make the golden file machine-specific.
	got := strings.ReplaceAll(out.String(), root+string(filepath.Separator), "")
	goldenPath := filepath.Join("testdata", "failures.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("failure diagnostics drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestJSONReport pins the -json schema: every finding carries rule, file,
// line, col, and message; waived findings are present with waived=true
// and the //lint:waive justification instead of being dropped.
func TestJSONReport(t *testing.T) {
	conf := filepath.Join("testdata", "fixtures.conf")
	dir := filepath.Join(moduleRoot(t), "internal", "analysis", "testdata", "src", "sched")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-conf", conf, "-json", dir}, &stdout, &stderr); code != exitFindings {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitFindings, stderr.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json produced no findings for the sched fixture")
	}
	waived := 0
	for _, f := range findings {
		if f.Rule == "" || f.File == "" || f.Line == 0 || f.Col == 0 || f.Message == "" {
			t.Errorf("finding with missing field: %+v", f)
		}
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("file path not slash-relative to module root: %q", f.File)
		}
		if f.Waived {
			waived++
			if f.Justification == "" {
				t.Errorf("waived finding without justification: %+v", f)
			}
		}
	}
	if waived == 0 {
		t.Error("sched fixture has a used waiver, but no waived finding in the JSON report")
	}
}

// TestGoldenDiagnostics pins the exact diagnostic stream — file:line:col,
// rule tags, messages, and ordering — across all fixtures. Regenerate
// with: go test ./cmd/nnwc-lint -run TestGoldenDiagnostics -update
func TestGoldenDiagnostics(t *testing.T) {
	conf := filepath.Join("testdata", "fixtures.conf")
	args := append([]string{"-conf", conf}, fixtureDirs(t)...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != exitFindings {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitFindings, stderr.String())
	}
	goldenPath := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("diagnostic format drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
