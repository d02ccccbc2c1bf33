package analysis

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is reused across fixture tests so the standard library is
// type-checked from source only once per test binary.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func fixturePackage(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() { testLoader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkgs, err := testLoader.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// activeFindings runs the full suite over pkg and keeps the unwaived
// findings.
func activeFindings(pkg *Package, policy *Policy) []Diagnostic {
	var active []Diagnostic
	for _, d := range RunAll(pkg, Analyzers(), policy) {
		if !d.Waived {
			active = append(active, d)
		}
	}
	return active
}

// expectation is one `// want "substr"` comment: a diagnostic whose
// "[rule] message" rendering contains substr must appear at file:line.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

// parseWants extracts `// want[+N] "substr" ...` comments from a fixture.
// The optional +N offset anchors the expectation N lines below the
// comment, for diagnostics that land on waiver-comment lines.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want") {
					continue
				}
				rest := strings.TrimPrefix(text, "want")
				offset := 0
				if strings.HasPrefix(rest, "+") {
					n := 1
					for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
						n++
					}
					v, err := strconv.Atoi(rest[1:n])
					if err != nil {
						t.Fatalf("%s: bad want offset in %q", pkg.Fset.Position(c.Pos()), c.Text)
					}
					offset, rest = v, rest[n:]
				}
				rest = strings.TrimSpace(rest)
				pos := pkg.Fset.Position(c.Pos())
				for rest != "" {
					quoted, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: bad want string in %q: %v", pos, c.Text, err)
					}
					substr, err := strconv.Unquote(quoted)
					if err != nil {
						t.Fatalf("%s: bad want string %q: %v", pos, quoted, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line + offset, substr: substr})
					rest = strings.TrimSpace(rest[len(quoted):])
				}
			}
		}
	}
	return wants
}

// checkFixture runs the full suite over the fixture and asserts its
// diagnostics match the `// want` comments exactly: every diagnostic
// needs a want, every want needs a diagnostic.
func checkFixture(t *testing.T, name string, policy *Policy) {
	t.Helper()
	pkg := fixturePackage(t, name)
	wants := parseWants(t, pkg)
	diags := activeFindings(pkg, policy)
	for _, d := range diags {
		rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(rendered, w.substr) {
				w.matched, found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { checkFixture(t, "determinism", NewPolicy()) }
func TestSchedFixture(t *testing.T)       { checkFixture(t, "sched", NewPolicy()) }
func TestMapRangeFixture(t *testing.T)    { checkFixture(t, "maprange", NewPolicy()) }
func TestHotPathFixture(t *testing.T)     { checkFixture(t, "hotpath", NewPolicy()) }
func TestWaiverFixture(t *testing.T)      { checkFixture(t, "waiver", NewPolicy()) }

func TestCtxflowFixture(t *testing.T)         { checkFixture(t, "ctxflow", NewPolicy()) }
func TestLockholdFixture(t *testing.T)        { checkFixture(t, "lockhold", NewPolicy()) }
func TestGoLifecycleFixture(t *testing.T)     { checkFixture(t, "golifecycle", NewPolicy()) }
func TestPoolDisciplineFixture(t *testing.T)  { checkFixture(t, "pooldiscipline", NewPolicy()) }
func TestErrcheckResultsFixture(t *testing.T) { checkFixture(t, "errcheckresults", NewPolicy()) }

// TestUnreferencedFixture checks the unreferenced rule over a fixture
// tree of three packages: the subject a, a caller b with a build-excluded
// file, and a main package. The findings must match the want comments,
// and must be the same when each package is linted alone on a fresh
// loader, so the index never depends on which packages were named.
func TestUnreferencedFixture(t *testing.T) {
	root := filepath.Join("testdata", "src", "unreferenced")
	loaderOnce.Do(func() { testLoader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	whole, err := testLoader.Load(root + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 3 {
		t.Fatalf("fixture tree: got %d packages, want 3", len(whole))
	}
	var wants []*expectation
	var got []string
	for _, pkg := range whole {
		wants = append(wants, parseWants(t, pkg)...)
		for _, d := range activeFindings(pkg, NewPolicy()) {
			got = append(got, d.String())
			rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
			found := false
			for _, w := range wants {
				if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(rendered, w.substr) {
					w.matched, found = true, true
					break
				}
			}
			if !found {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}

	alone, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var gotAlone []string
	for _, name := range []string{"a", "b", "cmd"} {
		pkgs, err := alone.Load(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range activeFindings(pkgs[0], NewPolicy()) {
			gotAlone = append(gotAlone, d.String())
		}
	}
	if strings.Join(got, "\n") != strings.Join(gotAlone, "\n") {
		t.Errorf("findings differ when packages are linted one at a time:\nwhole:\n%s\nalone:\n%s",
			strings.Join(got, "\n"), strings.Join(gotAlone, "\n"))
	}
}

func TestFloatEqFixture(t *testing.T) {
	p := NewPolicy()
	p.AllowFunc("floateq", testLoaderModulePath(t)+"/internal/analysis/testdata/src/floateq.approxEqual")
	checkFixture(t, "floateq", p)
}

func testLoaderModulePath(t *testing.T) string {
	t.Helper()
	loaderOnce.Do(func() { testLoader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return testLoader.ModulePath
}

// TestPolicyRestrictsRules pins the allow/only scoping semantics that
// lint.conf relies on: "only" restricts maprange to result packages,
// "allow" carves out the determinism allowlist, and patterns support
// subtree (/...) and path.Match forms.
func TestPolicyRestrictsRules(t *testing.T) {
	p := NewPolicy()
	p.Only("maprange", "nnwc/internal/core")
	p.Only("maprange", "nnwc/internal/stats")
	p.Allow("determinism", "nnwc/internal/obs/...")
	p.Allow("determinism", "nnwc/cmd/*")
	cases := []struct {
		rule, pkg string
		want      bool
	}{
		{"maprange", "nnwc/internal/core", true},
		{"maprange", "nnwc/internal/stats", true},
		{"maprange", "nnwc/internal/nn", false},
		{"determinism", "nnwc/internal/obs", false},
		{"determinism", "nnwc/internal/obs/metrics", false},
		{"determinism", "nnwc/cmd/nnwc", false},
		{"determinism", "nnwc/internal/train", true},
		{"sched", "nnwc/internal/train", true}, // unconfigured rules apply everywhere
	}
	for _, c := range cases {
		if got := p.Applies(c.rule, c.pkg); got != c.want {
			t.Errorf("Applies(%q, %q) = %v, want %v", c.rule, c.pkg, got, c.want)
		}
	}
	p.AllowFunc("floateq", "nnwc/internal/stats.ApproxEqual")
	if !p.FuncAllowed("floateq", "nnwc/internal/stats", "ApproxEqual") {
		t.Error("FuncAllowed must accept an allowfunc-listed function")
	}
	if p.FuncAllowed("floateq", "nnwc/internal/stats", "Mean") {
		t.Error("FuncAllowed must reject unlisted functions")
	}
}

func TestParseConf(t *testing.T) {
	p, err := ParseConf(`
# comment
determinism allow nnwc/internal/rng
maprange only nnwc/internal/core   # trailing comment
floateq allowfunc nnwc/internal/stats.ExactZero
`)
	if err != nil {
		t.Fatalf("ParseConf: %v", err)
	}
	if p.Applies("determinism", "nnwc/internal/rng") {
		t.Error("allow directive not honoured")
	}
	if p.Applies("maprange", "nnwc/internal/train") {
		t.Error("only directive not honoured")
	}
	if !p.FuncAllowed("floateq", "nnwc/internal/stats", "ExactZero") {
		t.Error("allowfunc directive not honoured")
	}
	for _, bad := range []string{
		"nosuchrule allow x",       // unknown rule
		"determinism frobnicate x", // unknown directive
		"determinism allow",        // wrong arity
	} {
		if _, err := ParseConf(bad); err == nil {
			t.Errorf("ParseConf(%q) succeeded, want error", bad)
		}
	}
}

// TestParseWaiver pins the waiver grammar: accepted, missing-separator,
// unknown-rule, empty-justification, and the //lint:ordered shorthand.
func TestParseWaiver(t *testing.T) {
	cases := []struct {
		text       string
		wantRule   string // "" means rejected or not a waiver
		wantReason string // substring of the malformed-ness reason, "" if accepted or ignored
	}{
		{"//lint:waive sched -- benchmark client", "sched", ""},
		{"//lint:waive floateq -- sentinel", "floateq", ""},
		{"//lint:ordered -- count only", "maprange", ""},
		{"//lint:waive sched", "", "missing ` -- justification`"},
		{"//lint:waive sched --", "", "missing ` -- justification`"},
		{"//lint:waive sched -- ", "", "empty justification"},
		{"//lint:waive nosuchrule -- because", "", `unknown rule "nosuchrule"`},
		{"//lint:waive  -- because", "", "missing rule name"},
		{"//lint:ordered", "", "missing ` -- justification`"},
		{"//lint:ordered -- ", "", "empty justification"},
		{"// an ordinary comment", "", ""},
		{"//lint:file-ignore something else", "", ""}, // unrelated lint directive
	}
	for _, c := range cases {
		w, reason := parseWaiver(c.text)
		switch {
		case c.wantRule != "":
			if w == nil || w.rule != c.wantRule {
				t.Errorf("parseWaiver(%q) = %v, %q; want rule %q", c.text, w, reason, c.wantRule)
			}
		case c.wantReason != "":
			if w != nil || !strings.Contains(reason, c.wantReason) {
				t.Errorf("parseWaiver(%q) = %v, %q; want reason containing %q", c.text, w, reason, c.wantReason)
			}
		default:
			if w != nil || reason != "" {
				t.Errorf("parseWaiver(%q) = %v, %q; want ignored", c.text, w, reason)
			}
		}
	}
}

// TestRepoIsClean runs the suite over the whole module under the
// checked-in lint.conf: the tip must stay finding-free so `make lint`
// can gate CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis is slow; skipped in -short")
	}
	loaderOnce.Do(func() { testLoader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	conf, err := ReadConfFile(filepath.Join(testLoader.RootDir, "lint.conf"))
	if err != nil {
		t.Fatalf("lint.conf: %v", err)
	}
	pkgs, err := testLoader.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load ./... matched no packages")
	}
	for _, pkg := range pkgs {
		for _, d := range activeFindings(pkg, conf) {
			t.Errorf("repo tip has finding: %s", d)
		}
	}
}
