package cpuid

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func probe() (avx, avx2FMA, avx512 bool) {
	const (
		fma, osxsave, avxBit = 1 << 12, 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2                 = 1 << 5                    // CPUID.(7,0):EBX
		avx512F, avx512DQ    = 1 << 16, 1 << 17          // CPUID.(7,0):EBX
		xmmYmm               = 6                         // XCR0: XMM and YMM state enabled
		opmaskZmm            = 0xe0                      // XCR0: opmask, ZMM_Hi256 and Hi16_ZMM state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	// XGETBV faults unless OSXSAVE is set, so it runs only after that check.
	if ecx1&(osxsave|avxBit) != osxsave|avxBit {
		return false, false, false
	}
	xcr0 := xgetbv()
	avx = xcr0&xmmYmm == xmmYmm
	avx2FMA = avx && ecx1&fma != 0 && ebx7&avx2 != 0
	avx512 = avx && xcr0&opmaskZmm == opmaskZmm && ebx7&(avx512F|avx512DQ) == avx512F|avx512DQ
	return avx, avx2FMA, avx512
}
