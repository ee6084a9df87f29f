//go:build amd64 && !purego && linux

package prf

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestSHANIDetectionMatchesCPUInfo holds the kernel's CPUID check to the
// flags the Linux kernel reports: a wrong bit in cpuidHasSHANI would leave
// the kernel off on a CPU that has it, and every kernel test would skip.
func TestSHANIDetectionMatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := true
	for _, f := range []string{"sha_ni", "ssse3", "sse4_1", "avx"} {
		want = want && slices.Contains(flags, f)
	}
	if got := cpuidHasSHANI(); got != want {
		t.Errorf("cpuidHasSHANI() = %v, but /proc/cpuinfo's flags say %v", got, want)
	}
}
