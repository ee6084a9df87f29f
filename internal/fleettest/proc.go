package fleettest

import (
	"bufio"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// BuildBinary compiles the command at import path pkg into a temporary
// directory and returns the binary's path.
func BuildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), path.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building %s: %v", pkg, err)
	}
	return bin
}

// StartProc launches bin with args and returns the process and, for each
// prefix, the address on the first stdout line that starts with it.  A
// process that has not printed them all within 30 s is killed and the
// test fails.
func StartProc(t *testing.T, bin string, args []string, prefixes ...string) (*exec.Cmd, []string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	type found struct {
		i    int
		addr string
	}
	// Sized to the prefixes: each is reported at most once, so the scanner
	// never blocks on a reader that has stopped listening.
	ch := make(chan found, len(prefixes))
	go func() {
		seen := make([]bool, len(prefixes))
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			for i, prefix := range prefixes {
				if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok && !seen[i] {
					seen[i] = true
					ch <- found{i, strings.Fields(rest)[0]}
				}
			}
		}
	}()
	addrs := make([]string, len(prefixes))
	deadline := time.After(30 * time.Second)
	for range prefixes {
		select {
		case f := <-ch:
			addrs[f.i] = f.addr
		case <-deadline:
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("%s did not report a listening address for each of %q", bin, prefixes)
		}
	}
	return cmd, addrs
}
