// Command nnwc-lint runs the repo's static-analysis suite (DESIGN.md
// §11, §16) over Go packages and reports findings as
// "file:line:col: [rule] message" lines, with file paths relative to the
// module root so output is stable across checkouts.
//
// Usage:
//
//	nnwc-lint [-conf lint.conf] [-rules r1,r2] [-json] [packages...]
//
// Packages default to ./... (the whole module, testdata excluded).
//
// -json emits the findings as a JSON array instead of text. The schema
// is stable: {rule, file, line, col, message, waived, justification}.
// Unlike the text reporter, the JSON report includes waived findings
// (waived=true plus the //lint:waive justification) so CI artifacts
// expose the full suppression picture.
//
// Exit codes: 0 clean, 1 unwaived findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nnwc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nnwc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	confPath := fs.String("conf", "", "policy file (default: lint.conf at the module root, if present)")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (includes waived findings)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nnwc-lint [-conf lint.conf] [-rules r1,r2] [-json] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(stderr, "nnwc-lint:", err)
		return exitUsage
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "nnwc-lint:", err)
		return exitUsage
	}

	policy, err := loadPolicy(*confPath, loader.RootDir)
	if err != nil {
		fmt.Fprintln(stderr, "nnwc-lint:", err)
		return exitUsage
	}

	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "nnwc-lint:", err)
		return exitUsage
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "nnwc-lint: no packages matched", strings.Join(patterns, " "))
		return exitUsage
	}

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		all = append(all, analysis.RunAll(pkg, analyzers, policy)...)
	}
	for i := range all {
		if rel, err := filepath.Rel(loader.RootDir, all[i].Pos.Filename); err == nil {
			all[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}

	findings := 0
	report := make([]jsonFinding, 0, len(all))
	for _, d := range all {
		f := jsonFinding{
			Rule:          d.Rule,
			File:          d.Pos.Filename,
			Line:          d.Pos.Line,
			Col:           d.Pos.Column,
			Message:       d.Message,
			Waived:        d.Waived,
			Justification: d.Justification,
		}
		report = append(report, f)
		if !d.Waived {
			findings++
			if !*jsonOut {
				fmt.Fprintln(stdout, d)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "nnwc-lint:", err)
			return exitUsage
		}
	}
	if findings > 0 {
		return exitFindings
	}
	return exitClean
}

// jsonFinding is the stable -json record. Field set and names are part
// of the tool's interface (CI artifacts parse them); extend, don't
// rename.
type jsonFinding struct {
	Rule          string `json:"rule"`
	File          string `json:"file"`
	Line          int    `json:"line"`
	Col           int    `json:"col"`
	Message       string `json:"message"`
	Waived        bool   `json:"waived"`
	Justification string `json:"justification,omitempty"`
}

func selectAnalyzers(rules string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if rules == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		a := byName[name]
		if a == nil {
			return nil, fmt.Errorf("unknown rule %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func loadPolicy(confPath, rootDir string) (*analysis.Policy, error) {
	if confPath == "" {
		confPath = filepath.Join(rootDir, "lint.conf")
		if _, err := os.Stat(confPath); err != nil {
			return analysis.NewPolicy(), nil
		}
	}
	return analysis.ReadConfFile(confPath)
}
