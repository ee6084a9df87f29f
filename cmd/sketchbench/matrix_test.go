package main

import "testing"

// TestMatrixFlagParsing covers the sweep-spec parsers.
func TestMatrixFlagParsing(t *testing.T) {
	cpus, err := parseMatrixCPUs(" 1,2 ,4")
	if err != nil || len(cpus) != 3 || cpus[0] != 1 || cpus[2] != 4 {
		t.Fatalf("parseMatrixCPUs: got %v, %v", cpus, err)
	}
	if _, err := parseMatrixCPUs("0"); err == nil {
		t.Fatal("parseMatrixCPUs accepted 0")
	}
	if _, err := parseMatrixCPUs(""); err == nil {
		t.Fatal("parseMatrixCPUs accepted empty list")
	}
	lanes, err := parseMatrixLanes("scalar, 8")
	if err != nil || len(lanes) != 2 || lanes[0] != 1 || lanes[1] != 8 {
		t.Fatalf("parseMatrixLanes: got %v, %v", lanes, err)
	}
	for _, width := range []string{"4", "16"} {
		if _, err := parseMatrixLanes(width); err == nil {
			t.Fatalf("parseMatrixLanes accepted %s", width)
		}
	}
	if laneName(1) != "scalar" || laneName(8) != "8" {
		t.Fatalf("laneName: got %q, %q", laneName(1), laneName(8))
	}
}

// TestMatrixSmoke runs a minimal 2-cpu × 2-lane sweep end to end and checks
// the grid shape; it doubles as a sanity check that the multi-lane rewiring
// actually reaches the query kernels (the run would fail loudly otherwise).
func TestMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep is slow")
	}
	res, err := runMatrix("1,2", "scalar,8")
	if err != nil {
		t.Fatal(err)
	}
	// 2 cpus × 2 lanes × 2 kernels.
	if len(res) != 8 {
		t.Fatalf("got %d matrix rows, want 8", len(res))
	}
	seen := map[string]bool{}
	for _, r := range res {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("row %+v has empty measurement", r)
		}
		seen[r.Kernel] = true
	}
	if !seen["conjunctive-query-10k"] || !seen["plan-interval-local"] {
		t.Fatalf("matrix missing kernels: %v", seen)
	}
}
