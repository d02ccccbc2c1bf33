//go:build !amd64

package cpuid

func probe() (avx, avx2FMA, avx512 bool) { return false, false, false }
