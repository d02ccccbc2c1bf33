package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo checks the probe against the feature flags Linux
// reports, which it clears when the OS does not save the YMM state.
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
}
