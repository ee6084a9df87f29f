package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// expectedKernels is the committed list of kernel names BENCH.json must
// carry.  It is a ratchet in both directions: a kernel dropped from the
// code (or renamed) no longer satisfies its line, and a kernel added to
// the code without a line here is flagged as uncovered — so the artifact
// CI uploads can neither lose nor silently omit benchmarks.  After the
// name(s) a line may pin the kernel's heap use, " allocs=0", " allocs<=N"
// and " bytes<=N": allocations and allocated bytes per operation are
// deterministic, so unlike ns/op they can be gated on any runner.  A byte
// or a counted-allocation pin is the reading of a -quick run, the artifact
// every PR produces — the replay kernels move ten times the records
// without the flag — and is checked against no other.
//
//go:embed kernels.txt
var expectedKernels string

// checkKernels verifies the BENCH.json at path against kernels.txt.
func checkKernels(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file BenchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	present := make(map[string]KernelResult, len(file.Kernels))
	for _, k := range file.Kernels {
		if _, twice := present[k.Name]; twice {
			return fmt.Errorf("%s lists kernel %q twice", path, k.Name)
		}
		present[k.Name] = k
	}
	covered := make(map[string]bool)
	var missing, allocating []string
	for _, line := range strings.Split(expectedKernels, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		names, noAllocs, maxAllocs, maxBytes := fields[0], false, int64(-1), int64(-1)
		for _, pin := range fields[1:] {
			if n, ok := strings.CutPrefix(pin, "bytes<="); ok {
				if maxBytes, err = strconv.ParseInt(n, 10, 64); err != nil || maxBytes < 0 {
					return fmt.Errorf("kernels.txt: %q: bad byte count in %q", line, pin)
				}
			} else if n, ok := strings.CutPrefix(pin, "allocs<="); ok {
				if maxAllocs, err = strconv.ParseInt(n, 10, 64); err != nil || maxAllocs < 0 {
					return fmt.Errorf("kernels.txt: %q: bad allocation count in %q", line, pin)
				}
			} else if pin == "allocs=0" {
				noAllocs = true
			} else {
				return fmt.Errorf("kernels.txt: %q: unknown pin %q", line, pin)
			}
		}
		matched := false
		for _, alt := range strings.Split(names, "|") {
			k, ok := present[alt]
			if !ok {
				continue
			}
			covered[alt] = true
			matched = true
			if noAllocs && k.AllocsPerOp > 0 {
				allocating = append(allocating, fmt.Sprintf("%s (%d allocs/op)", alt, k.AllocsPerOp))
			}
			if file.Quick && maxAllocs >= 0 && k.AllocsPerOp > maxAllocs {
				allocating = append(allocating, fmt.Sprintf("%s (%d allocs/op, pinned at %d)", alt, k.AllocsPerOp, maxAllocs))
			}
			if file.Quick && maxBytes >= 0 && k.BytesPerOp > maxBytes {
				allocating = append(allocating, fmt.Sprintf("%s (%d bytes/op, pinned at %d)", alt, k.BytesPerOp, maxBytes))
			}
		}
		if !matched {
			missing = append(missing, names)
		}
	}
	var unexpected []string
	for name := range present {
		if !covered[name] {
			unexpected = append(unexpected, name)
		}
	}
	if len(missing) > 0 || len(unexpected) > 0 || len(allocating) > 0 {
		msg := fmt.Sprintf("kernels in %s diverge from cmd/sketchbench/kernels.txt", path)
		if len(missing) > 0 {
			msg += fmt.Sprintf("\n  missing from artifact: %s", strings.Join(missing, ", "))
		}
		if len(unexpected) > 0 {
			msg += fmt.Sprintf("\n  not in kernels.txt (add them): %s", strings.Join(unexpected, ", "))
		}
		if len(allocating) > 0 {
			msg += fmt.Sprintf("\n  allocating past their pins: %s", strings.Join(allocating, ", "))
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
