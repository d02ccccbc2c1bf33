// Package b calls package a from another package.
package b

import "nnwc/internal/analysis/testdata/src/unreferenced/a"

func init() {
	a.UsedByB()
	_ = a.T{}
}
