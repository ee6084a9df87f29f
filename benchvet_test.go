package sketchprivacy

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModuleVets compiles, vets and tests the fleet benchmark
// harness.  bench/ is a Go module of its own (it imports internal/ through
// a replace directive), so `go build ./...` and `go test ./...` at the
// root never compile it: without this test an internal/ export the harness
// is written against could change, or the internal/ behaviour its smoke
// tests pin (all four workloads at smoke scale, every correctness gate)
// could move, and tier-1 stay green.  GOPROXY=off and GOTOOLCHAIN=local
// keep the children off the network — the module has no dependency but
// this one.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a second module")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
