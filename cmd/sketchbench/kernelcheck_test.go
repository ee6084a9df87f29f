package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckKernelsGatesNamesAndAllocations feeds checkKernels artifacts
// built from kernels.txt itself: the complete list passes, a dropped
// kernel and an unlisted one fail, and a kernel pinned at allocs=0 fails
// once it reports an allocation while an unpinned one may allocate.
func TestCheckKernelsGatesNamesAndAllocations(t *testing.T) {
	var full []KernelResult
	for _, line := range strings.Split(expectedKernels, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimSuffix(line, " allocs=0"), "|")
		full = append(full, KernelResult{Name: name})
	}
	check := func(kernels []KernelResult) error {
		raw, err := json.Marshal(BenchFile{Kernels: kernels})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return checkKernels(path)
	}
	with := func(name string, allocs int64) []KernelResult {
		out := append([]KernelResult(nil), full...)
		for i := range out {
			if out[i].Name == name {
				out[i].AllocsPerOp = allocs
			}
		}
		return out
	}
	if err := check(full); err != nil {
		t.Fatalf("the complete kernel list is refused: %v", err)
	}
	if err := check(full[1:]); err == nil || !strings.Contains(err.Error(), full[0].Name) {
		t.Errorf("a dropped kernel passes: %v", err)
	}
	if err := check(append(with("", 0), KernelResult{Name: "sha256-multi4-block"})); err == nil {
		t.Error("a kernel kernels.txt does not list passes")
	}
	if err := check(with("sha256-multi8-block", 3)); err == nil || !strings.Contains(err.Error(), "sha256-multi8-block (3 allocs/op)") {
		t.Errorf("a kernel pinned at allocs=0 may allocate: %v", err)
	}
	if err := check(with("conjunctive-query-10k", 69)); err != nil {
		t.Errorf("an unpinned kernel may not allocate: %v", err)
	}
}
