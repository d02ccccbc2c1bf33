//go:build ignore

// This file never builds on any host, but the names it uses still count:
// kernels_other.go-style files are the only callers of some identifiers.
package b

import "nnwc/internal/analysis/testdata/src/unreferenced/a"

func other() { a.UsedByExcluded() }
