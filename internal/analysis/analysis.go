// Package analysis is a stdlib-only static-analysis suite that enforces
// the repo's determinism, allocation, and float-safety invariants at the
// source level (DESIGN.md §11). Each analyzer front-runs a runtime
// guarantee that is otherwise only caught by tests — the 1e-9
// seed-reference CV check, TestBatchEpochZeroAlloc, and the worker-count
// parity pins — by rejecting the defect classes that break them
// (unseeded clocks, stray goroutines, map-iteration order, hot-path
// allocation, exact float comparison) at lint time.
//
// The suite is built purely on go/ast, go/token, go/types, and go/parser
// with a custom module-aware loader (load.go), so go.mod stays
// dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as "file:line:col: [rule] message".
// A waived diagnostic (suppressed by a `//lint:waive` comment) is still
// recorded — with Waived set and the waiver's justification — so that
// machine consumers (nnwc-lint -json) can audit what is being suppressed
// and why; the text reporter and the exit code ignore waived entries.
type Diagnostic struct {
	Pos           token.Position
	Rule          string
	Message       string
	Waived        bool
	Justification string // non-empty only when Waived
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects the package held by the Pass
// and reports findings through it.
type Analyzer struct {
	Name string // rule name used in diagnostics, waivers, and lint.conf
	Doc  string // one-line description
	Run  func(*Pass)
}

// Pass carries one package through one analyzer, routing reports through
// the waiver table so `//lint:waive` comments can suppress them.
type Pass struct {
	Pkg     *Package
	Policy  *Policy
	waivers *waiverTable
	diags   *[]Diagnostic
}

// Reportf records a finding at pos. If a matching waiver comment is
// attached to that line (or the line above it) the finding is recorded
// as waived, carrying the waiver's justification, instead of active.
func (p *Pass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	d := Diagnostic{Pos: position, Rule: rule, Message: fmt.Sprintf(format, args...)}
	if w := p.waivers.waive(rule, position); w != nil {
		d.Waived = true
		d.Justification = w.justification
	}
	*p.diags = append(*p.diags, d)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		SchedAnalyzer,
		MapRangeAnalyzer,
		HotPathAnalyzer,
		FloatEqAnalyzer,
		CtxflowAnalyzer,
		LockholdAnalyzer,
		GoLifecycleAnalyzer,
		PoolDisciplineAnalyzer,
		ErrcheckResultsAnalyzer,
		UnreferencedAnalyzer,
	}
}

// RunAll applies the given analyzers to pkg under policy and returns
// every finding sorted by position. Malformed or unused waiver comments
// are reported under the pseudo-rule "waiver". Waived findings are
// included with Waived set and the waiver's justification, so callers
// that emit machine-readable reports can expose the full suppression
// picture.
func RunAll(pkg *Package, analyzers []*Analyzer, policy *Policy) []Diagnostic {
	var diags []Diagnostic
	wt := newWaiverTable(pkg, &diags)
	for _, a := range analyzers {
		a.Run(&Pass{Pkg: pkg, Policy: policy, waivers: wt, diags: &diags})
	}
	wt.reportUnused()
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// WaiverRule is the pseudo-rule under which malformed and unused waiver
// comments are reported.
const WaiverRule = "waiver"

// A waiver is one parsed `//lint:waive <rule> -- <justification>` (or the
// map-range shorthand `//lint:ordered -- <justification>`) comment. It
// suppresses a matching diagnostic on its own line or the line directly
// below; an unconsumed waiver is itself a finding, so stale waivers
// cannot accumulate.
type waiver struct {
	rule          string
	justification string
	pos           token.Position
	used          bool
}

const (
	waivePrefix   = "//lint:waive"
	orderedPrefix = "//lint:ordered"
	waiverSep     = " -- "
)

// parseWaiver parses one comment's text. It returns (nil, "") for
// comments that are not waivers at all, and (nil, reason) for comments
// that are recognizably waivers but malformed.
func parseWaiver(text string) (*waiver, string) {
	switch {
	case text == orderedPrefix || strings.HasPrefix(text, orderedPrefix+" "):
		rest := strings.TrimPrefix(text, orderedPrefix)
		just, reason := waiverJustification(rest)
		if reason != "" {
			return nil, reason
		}
		return &waiver{rule: "maprange", justification: just}, ""
	case text == waivePrefix || strings.HasPrefix(text, waivePrefix+" "):
		// Deliberately not trimmed: a trailing "-- " with an empty
		// justification must parse as such, not as a missing separator.
		rest := strings.TrimPrefix(text, waivePrefix)
		sep := strings.Index(rest, waiverSep)
		if sep < 0 {
			return nil, "missing ` -- justification`"
		}
		rule := strings.TrimSpace(rest[:sep])
		if rule == "" {
			return nil, "missing rule name"
		}
		if !knownRule(rule) {
			return nil, fmt.Sprintf("unknown rule %q", rule)
		}
		just := strings.TrimSpace(rest[sep+len(waiverSep):])
		if just == "" {
			return nil, "empty justification"
		}
		return &waiver{rule: rule, justification: just}, ""
	}
	return nil, ""
}

// waiverJustification parses the ` -- justification` tail of an ordered
// waiver, returning a non-empty reason when it is malformed.
func waiverJustification(rest string) (string, string) {
	if strings.TrimSpace(rest) == "" {
		return "", "missing ` -- justification`"
	}
	sep := strings.Index(rest, waiverSep)
	if sep < 0 {
		return "", "missing ` -- justification`"
	}
	just := strings.TrimSpace(rest[sep+len(waiverSep):])
	if just == "" {
		return "", "empty justification"
	}
	return just, ""
}

func knownRule(rule string) bool {
	for _, a := range Analyzers() {
		if a.Name == rule {
			return true
		}
	}
	return false
}

// waiverTable indexes every waiver comment in a package by file and line.
type waiverTable struct {
	pkg     *Package
	diags   *[]Diagnostic
	byLine  map[string]map[int]*waiver // filename → line → waiver
	ordered []*waiver                  // stable order for unused reporting
}

func newWaiverTable(pkg *Package, diags *[]Diagnostic) *waiverTable {
	wt := &waiverTable{pkg: pkg, diags: diags, byLine: map[string]map[int]*waiver{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				w, reason := parseWaiver(c.Text)
				pos := pkg.Fset.Position(c.Pos())
				if reason != "" {
					*wt.diags = append(*wt.diags, Diagnostic{
						Pos:     pos,
						Rule:    WaiverRule,
						Message: "malformed waiver comment: " + reason,
					})
					continue
				}
				if w == nil {
					continue
				}
				w.pos = pos
				lines := wt.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]*waiver{}
					wt.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = w
				wt.ordered = append(wt.ordered, w)
			}
		}
	}
	return wt
}

// waive returns the waiver for rule attached at pos — on the same line
// (trailing comment) or the line immediately above (own-line comment) —
// or nil when the finding is not waived.
func (wt *waiverTable) waive(rule string, pos token.Position) *waiver {
	lines := wt.byLine[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if w := lines[line]; w != nil && w.rule == rule {
			w.used = true
			return w
		}
	}
	return nil
}

// reportUnused flags waivers that suppressed nothing: either stale, or
// detached from the construct they were meant to cover.
func (wt *waiverTable) reportUnused() {
	for _, w := range wt.ordered {
		if !w.used {
			*wt.diags = append(*wt.diags, Diagnostic{
				Pos:     w.pos,
				Rule:    WaiverRule,
				Message: fmt.Sprintf("waiver for rule %q waives nothing (stale or detached)", w.rule),
			})
		}
	}
}

// funcFor returns the innermost function declaration enclosing pos in
// file, or nil. Used by rules with per-function allowlists.
func funcFor(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
