package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// MatrixResult is one cell of the core-count × lane-width sweep: a query
// kernel measured at a fixed GOMAXPROCS and PRF lane policy.  The sweep
// separates the two scaling axes the paper's record loop has — worker
// parallelism across records and SIMD parallelism within a worker — so a
// reader can see where each stops paying on their machine.
type MatrixResult struct {
	// Kernel names the measured workload (a subset of the kernels list).
	Kernel string `json:"kernel"`
	// GoMaxProcs is the scheduler parallelism the cell ran with.  Rows may
	// exceed NumCPU (the sweep sets GOMAXPROCS explicitly); such rows show
	// oversubscription, not extra hardware.
	GoMaxProcs int `json:"gomaxprocs"`
	// Lanes is the forced PRF lane policy: "scalar" or "8" (the 8-lane
	// engine — assembly when the CPU has it, portable otherwise).
	Lanes string `json:"lanes"`
	// NsPerOp and Iterations mirror KernelResult.
	NsPerOp    float64 `json:"ns_per_op"`
	Iterations int     `json:"iterations"`
}

// parseMatrixCPUs parses the -cpus flag: a comma-separated list of
// GOMAXPROCS values.
func parseMatrixCPUs(spec string) ([]int, error) {
	var cpus []int
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpus entry %q (want positive integers)", f)
		}
		cpus = append(cpus, n)
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("empty -cpus list")
	}
	return cpus, nil
}

// parseMatrixLanes parses the -lanes flag into SetLanes widths.
func parseMatrixLanes(spec string) ([]int, error) {
	var lanes []int
	for _, f := range strings.Split(spec, ",") {
		switch strings.TrimSpace(f) {
		case "":
		case "scalar", "1":
			lanes = append(lanes, 1)
		case "8":
			lanes = append(lanes, 8)
		default:
			return nil, fmt.Errorf("bad -lanes entry %q (want scalar or 8)", f)
		}
	}
	if len(lanes) == 0 {
		return nil, fmt.Errorf("empty -lanes list")
	}
	return lanes, nil
}

// laneName is the JSON spelling of a lane width.
func laneName(w int) string {
	if w == 1 {
		return "scalar"
	}
	return strconv.Itoa(w)
}

// matrixCells builds the swept workloads once — the tables are read-only
// during queries, so every cell reuses them and a cell's cost is purely the
// query phase under that cell's GOMAXPROCS and lane policy.
func matrixCells() ([]struct {
	name string
	fn   func(b *testing.B)
}, error) {
	// conjunctive-query-10k: one subset, 10k sketched records, the
	// single-pair estimator loop (same workload as the kernels row).
	pq := 0.25
	hq := prf.NewBiased(benchKey(), prf.MustProb(pq))
	pop := dataset.UniformBinary(1, 10000, 8, 0.5)
	sk, err := sketch.NewSketcher(hq, sketch.MustParams(pq, 10))
	if err != nil {
		return nil, err
	}
	est, err := query.NewEstimator(hq)
	if err != nil {
		return nil, err
	}
	conjTab := sketch.NewTable()
	rng := stats.NewRNG(2)
	conjSubset := bitvec.Range(0, 4)
	for _, profile := range pop.Profiles {
		s, err := sk.Sketch(rng, profile, conjSubset)
		if err != nil {
			return nil, err
		}
		if err := conjTab.Add(sketch.Published{ID: profile.ID, Subset: conjSubset, S: s}); err != nil {
			return nil, err
		}
	}
	conjSrc := est.TableSource(conjTab)
	v := bitvec.MustFromString("1010")

	// plan-interval-local: the multi-entry interval plan over prefix
	// subsets (same workload as the plan kernels row).
	hp := prf.NewBiased(benchKey(), prf.MustProb(0.3))
	estPlan, err := query.NewEstimator(hp)
	if err != nil {
		return nil, err
	}
	f := planField()
	planTab := sketch.NewTable()
	for _, subset := range query.FieldPrefixSubsets(f) {
		for id := uint64(1); id <= uint64(planIntervalRecords); id++ {
			if err := planTab.Add(routerRecord(id, subset)); err != nil {
				return nil, err
			}
		}
	}
	src := estPlan.TableSource(planTab)
	const c = 181

	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"conjunctive-query-10k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.Fraction(conjSrc, conjSubset, v); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-interval-local", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := estPlan.FieldAtMost(src, f, c); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}

// runMatrix sweeps the query kernels over every requested GOMAXPROCS ×
// lane-width combination, restoring both settings afterwards.
func runMatrix(cpusSpec, lanesSpec string) ([]MatrixResult, error) {
	cpus, err := parseMatrixCPUs(cpusSpec)
	if err != nil {
		return nil, err
	}
	lanes, err := parseMatrixLanes(lanesSpec)
	if err != nil {
		return nil, err
	}
	cells, err := matrixCells()
	if err != nil {
		return nil, err
	}
	prevProcs := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		prf.SetLanes(0)
	}()
	var out []MatrixResult
	for _, ncpu := range cpus {
		runtime.GOMAXPROCS(ncpu)
		for _, lw := range lanes {
			if err := prf.SetLanes(lw); err != nil {
				return nil, err
			}
			for _, cell := range cells {
				r := testing.Benchmark(cell.fn)
				res := MatrixResult{
					Kernel:     cell.name,
					GoMaxProcs: ncpu,
					Lanes:      laneName(lw),
					NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
					Iterations: r.N,
				}
				out = append(out, res)
				fmt.Printf("matrix %-22s cpus=%d lanes=%-6s %12.1f ns/op\n",
					res.Kernel, res.GoMaxProcs, res.Lanes, res.NsPerOp)
			}
		}
	}
	return out, nil
}
