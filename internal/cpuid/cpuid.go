// Package cpuid probes, once at start-up, the x86 features behind the
// vectorized kernels in internal/mat and internal/nn. Off amd64 every
// feature reads false and the portable Go kernels run.
package cpuid

// AVX: CPUID shows AVX and OSXSAVE, and XGETBV shows the XMM and YMM state
// enabled (the OS saves the YMM registers). AVX2FMA also needs AVX2 and FMA.
// AVX512 needs AVX, AVX512F and AVX512DQ, and XGETBV showing the opmask and
// ZMM state enabled as well.
var AVX, AVX2FMA, AVX512 = probe()
