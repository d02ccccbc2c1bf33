package analysis

import "go/ast"

// SchedAnalyzer enforces scheduler confinement: `go` statements are
// forbidden outside the packages that own concurrency (internal/sched —
// the deterministic worker pool; internal/serve — the HTTP plane;
// internal/obs — the debug server). Experiment-plane parallelism must
// flow through sched.Map, whose atomic-counter work stealing and
// order-replayed FP reductions keep results bit-identical at any worker
// count; a raw goroutine in a result path reintroduces scheduling
// nondeterminism that the workers=1/2/8 parity tests would only catch as
// a flaky diff.
var SchedAnalyzer = &Analyzer{
	Name: "sched",
	Doc:  "forbid `go` statements outside the packages that own concurrency",
	Run:  runSched,
}

func runSched(p *Pass) {
	if !p.Policy.Applies("sched", p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf("sched", g.Pos(),
					"raw goroutine outside the scheduler packages; route parallelism through internal/sched")
			}
			return true
		})
	}
}
