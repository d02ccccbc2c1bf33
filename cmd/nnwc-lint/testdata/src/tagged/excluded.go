//go:build ignore

// This file would fail type-checking if it were ever loaded; the build
// constraint above excludes it, and the loader must honor that instead
// of reporting these deliberate errors. It also holds the only call of
// Add: names in build-excluded files still count as references.
package tagged

var broken int = "build-tag-excluded files must not be type-checked"

func alsoBroken() { undefinedCall(Add(1, 2)) }
