package cpuid

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func probe() (avx, avx2FMA bool) {
	const (
		fma, osxsave, avxBit = 1 << 12, 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2                 = 1 << 5                    // CPUID.(7,0):EBX
		xmmYmm               = 6                         // XCR0: XMM and YMM state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	// XGETBV faults unless OSXSAVE is set, so it runs only after that check.
	avx = ecx1&(osxsave|avxBit) == osxsave|avxBit && xgetbv()&xmmYmm == xmmYmm
	return avx, avx && ecx1&fma != 0 && ebx7&avx2 != 0
}
