package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCheckKernelsGatesNamesAndAllocations feeds checkKernels artifacts
// built from kernels.txt itself: the complete list passes, a dropped
// kernel and an unlisted one fail, a kernel pinned at allocs=0 fails
// once it reports an allocation while an unpinned one may allocate, and a
// kernel pinned at bytes<=N or allocs<=N fails one byte or one allocation
// past N — in a -quick artifact, whose sizes the pins are readings of.
func TestCheckKernelsGatesNamesAndAllocations(t *testing.T) {
	var full []KernelResult
	pinnedBytes, pinnedAllocs := make(map[string]int64), make(map[string]int64)
	for _, line := range strings.Split(expectedKernels, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		name, _, _ := strings.Cut(fields[0], "|")
		full = append(full, KernelResult{Name: name})
		for _, pin := range fields[1:] {
			if n, ok := strings.CutPrefix(pin, "bytes<="); ok {
				pinnedBytes[name], _ = strconv.ParseInt(n, 10, 64)
			}
			if n, ok := strings.CutPrefix(pin, "allocs<="); ok {
				pinnedAllocs[name], _ = strconv.ParseInt(n, 10, 64)
			}
		}
	}
	quick := true
	check := func(kernels []KernelResult) error {
		raw, err := json.Marshal(BenchFile{Quick: quick, Kernels: kernels})
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
	withBytes := func(name string, bytes int64) []KernelResult {
		out := with("", 0)
		for i := range out {
			if out[i].Name == name {
				out[i].BytesPerOp = bytes
			}
		}
		return out
	}
	for _, name := range []string{"table-ingest", "table-write-then-read", "store-replay-100k", "store-replay-indexed"} {
		pin, ok := pinnedBytes[name]
		if !ok {
			t.Errorf("kernels.txt no longer pins the bytes/op of %s", name)
			continue
		}
		if err := check(withBytes(name, pin)); err != nil {
			t.Errorf("%s at its pin of %d bytes/op is refused: %v", name, pin, err)
		}
		if err := check(withBytes(name, pin+1)); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s one byte past its pin of %d bytes/op passes: %v", name, pin, err)
		}
	}
	if err := check(withBytes("conjunctive-query-10k", 1<<40)); err != nil {
		t.Errorf("a kernel with no byte pin may not allocate bytes: %v", err)
	}
	for _, name := range []string{"table-write-then-read", "store-replay-100k", "store-replay-indexed"} {
		pin, ok := pinnedAllocs[name]
		if !ok {
			t.Errorf("kernels.txt no longer pins the allocs/op of %s", name)
			continue
		}
		if err := check(with(name, pin)); err != nil {
			t.Errorf("%s at its pin of %d allocs/op is refused: %v", name, pin, err)
		}
		if err := check(with(name, pin+1)); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s one allocation past its pin of %d allocs/op passes: %v", name, pin, err)
		}
	}
	quick = false
	if err := check(withBytes("store-replay-indexed", 1<<40)); err != nil {
		t.Errorf("a full-size artifact is held to the -quick byte pins: %v", err)
	}
	if err := check(with("store-replay-indexed", 1<<40)); err != nil {
		t.Errorf("a full-size artifact is held to the -quick allocation pins: %v", err)
	}
}
