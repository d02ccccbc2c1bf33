package stats

// This file is the one place exact floating-point comparison is allowed
// (the floateq analyzer's allowfunc list in lint.conf names these
// helpers). Routing call sites through them documents *which* comparison
// semantics each site wants — zero-sentinel or bit-identity —
// instead of leaving a bare == whose intent the next reader must guess.
// Tolerance comparisons are spelled out at their call sites, as
// math.Abs(a-b) <= tol.

// ExactZero reports whether x is exactly zero (either sign). It exists
// for sentinel checks — "was this parameter left unset", "is this pivot
// singular", "skip the zero entries of a sparse row" — where an epsilon
// would change semantics; it is NOT an approximate-zero test.
func ExactZero(x float64) bool { return x == 0 }

// ExactEqual reports whether a and b are equal under Go's ==, i.e.
// bit-identical up to the usual IEEE caveats (NaN ≠ NaN, −0 == +0). It
// exists for determinism checks that compare two runs' outputs, where
// bit-identity is exactly the property under test.
func ExactEqual(a, b float64) bool { return a == b }
