package sketchprivacy

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets the fleet benchmark harness.
// bench/ is a Go module of its own (it imports internal/ through a replace
// directive), so `go build ./...` and `go test ./...` at the root never
// compile it: without this test an internal/ export the harness is written
// against could change and tier-1 stay green.  GOPROXY=off and
// GOTOOLCHAIN=local keep the child off the network — the module has no
// dependency but this one.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
