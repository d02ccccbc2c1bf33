// Package a is the unreferenced rule's subject: package b, the main
// package in cmd, and a build-excluded file of b are its only callers.
package a

import "errors"

// Positive cases: exported identifiers no non-test file names.

func Unused() {} // want "exported func Unused"

type UnusedType struct{} // want "exported type UnusedType"

var UnusedVar = 1 // want "exported var UnusedVar"

const UnusedConst = 2 // want "exported const UnusedConst"

// Recursive refers only to itself, which is not a reference.
func Recursive(n int) int { // want "exported func Recursive"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Negative cases: each is reached from a non-test file.

func UsedByB() {}

func UsedByMain() {}

func UsedByExcluded() {}

// T is named by b. Its methods that satisfy a standard-library interface
// count as referenced: fmt, errors and encoding/json call them without
// naming them.
type T struct{ err error }

func (T) String() string               { return "t" }
func (T) Error() string                { return "t" }
func (t T) Unwrap() error              { return t.err }
func (T) MarshalJSON() ([]byte, error) { return []byte(`"t"`), nil }
func (T) UnusedMethod()                {} // want "exported method UnusedMethod"
func (t T) Is(target error) bool       { return errors.Is(t.err, target) }
func (T) As(target any) bool           { return false }
func (T) Format(string, ...any) string { return "" } // want "exported method Format"

// Waivers: one with a reason suppresses the finding; one without is
// malformed, so the finding stands.

//lint:waive unreferenced -- loaded by name from a plugin table the linter cannot see
func Waived() {}

// want+2 "[waiver] malformed waiver comment: missing ` -- justification`"
//
//lint:waive unreferenced
func BadlyWaived() {} // want "exported func BadlyWaived"
