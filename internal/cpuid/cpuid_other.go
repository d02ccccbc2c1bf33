//go:build !amd64

package cpuid

func probe() (avx, avx2FMA bool) { return false, false }
