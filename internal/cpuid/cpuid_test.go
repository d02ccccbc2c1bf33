package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo checks the probe against the feature flags Linux
// reports, which it clears when the OS does not save the YMM (or, for
// the AVX-512 flags, the opmask and ZMM) state.
func TestProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("needs /proc/cpuinfo on amd64")
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if AVX != flags["avx"] {
		t.Errorf("AVX = %v, /proc/cpuinfo avx = %v", AVX, flags["avx"])
	}
	if want := flags["avx"] && flags["avx2"] && flags["fma"]; AVX2FMA != want {
		t.Errorf("AVX2FMA = %v, /proc/cpuinfo avx, avx2 and fma = %v", AVX2FMA, want)
	}
	if want := flags["avx"] && flags["avx512f"] && flags["avx512dq"]; AVX512 != want {
		t.Errorf("AVX512 = %v, /proc/cpuinfo avx, avx512f and avx512dq = %v", AVX512, want)
	}
	t.Logf("AVX = %v, AVX2FMA = %v, AVX512 = %v", AVX, AVX2FMA, AVX512)
}
