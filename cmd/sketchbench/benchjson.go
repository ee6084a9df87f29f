package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// KernelResult is one machine-readable benchmark row of BENCH.json.
type KernelResult struct {
	// Name identifies the kernel; names are stable across PRs so files can
	// be diffed.
	Name string `json:"name"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// Iterations is how many operations the measurement averaged over.
	Iterations int `json:"iterations"`
}

// BenchFile is the top-level BENCH.json document.
type BenchFile struct {
	// GeneratedAt is the RFC 3339 timestamp of the run.
	GeneratedAt string `json:"generated_at"`
	// GoVersion, NumCPU and GoMaxProcs qualify the numbers: NumCPU is the
	// machine, GoMaxProcs is the scheduler parallelism the run actually
	// had — the figure the parallel query kernel scales with, and the two
	// diverge whenever the runner is CPU-quota'd (containerized CI).
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// AcceleratedLanes records whether the multi-lane SHA-256 assembly
	// engine was active, qualifying the multi-lane kernels and the matrix.
	AcceleratedLanes bool `json:"accelerated_lanes"`
	// Quick records that the run had -quick, which makes several kernels
	// ten times smaller: kernels.txt pins bytes/op at those sizes.
	Quick   bool           `json:"quick"`
	Kernels []KernelResult `json:"kernels"`
	// Matrix is the core-count × lane-width sweep of the query kernels
	// (see runMatrix); empty when the matrix was skipped.
	Matrix []MatrixResult `json:"matrix,omitempty"`
}

// benchKey returns the fixed generator key used by every kernel benchmark.
func benchKey() []byte { return bytes.Repeat([]byte{0x42}, prf.MinKeyBytes) }

// kernelBenchmarks enumerates the measured kernels.  Each entry is a plain
// testing.B body, run through testing.Benchmark so ns/op and allocs/op come
// from the standard machinery.
func kernelBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	p := 0.3
	h := prf.NewBiased(benchKey(), prf.MustProb(p))
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"hmac-midstate", func(b *testing.B) {
			f := prf.NewFunc(benchKey())
			me := f.NewMultiEvaluator()
			msg := bytes.Repeat([]byte{0x11}, 150)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				me.Uint64Msg(msg)
			}
		}},
		{"sha256-multi8-block", func(b *testing.B) {
			// One op = 8 lanes × one block through the widest engine
			// (AVX2 assembly on amd64, portable elsewhere): eight
			// compressions, where hmac-midstate ÷ 2 is the scalar
			// engine's cost of two and a state restore.
			b.ReportAllocs()
			prf.MultiLaneBlockBench(b.N)
		}},
		{"prf-uint64-batch", func(b *testing.B) {
			// One op = 64 messages through the batch evaluator at the
			// automatic lane policy; compare against 64× hmac-midstate.
			f := prf.NewFunc(benchKey())
			me := f.NewMultiEvaluator()
			msgs := make([][]byte, 64)
			for i := range msgs {
				msgs[i] = bytes.Repeat([]byte{byte(i)}, 150)
			}
			out := make([]uint64, len(msgs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				me.Uint64Batch(msgs, out)
			}
		}},
		{"evaluate-facade", func(b *testing.B) {
			subset := bitvec.Range(0, 8)
			v := bitvec.FromUint(0x5A, 8)
			s := sketch.Sketch{Key: 123, Length: 10}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sketch.Evaluate(h, bitvec.UserID(i), subset, v, s)
			}
		}},
		{"evaluate-kernel", func(b *testing.B) {
			subset := bitvec.Range(0, 8)
			v := bitvec.FromUint(0x5A, 8)
			s := sketch.Sketch{Key: 123, Length: 10}
			k := sketch.NewKernel(h, subset, v)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.Evaluate(bitvec.UserID(i), s)
			}
		}},
		{"sketch-one", func(b *testing.B) {
			sk, err := sketch.NewSketcher(h, sketch.MustParams(p, 10))
			if err != nil {
				b.Fatal(err)
			}
			subset := bitvec.Range(0, 8)
			profile := bitvec.Profile{ID: 1, Data: bitvec.FromUint(0xA5, 8)}
			rng := stats.NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profile.ID = bitvec.UserID(i + 1)
				if _, err := sk.Sketch(rng, profile, subset); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"conjunctive-query-10k", func(b *testing.B) {
			pq := 0.25
			hq := prf.NewBiased(benchKey(), prf.MustProb(pq))
			pop := dataset.UniformBinary(1, 10000, 8, 0.5)
			sk, _ := sketch.NewSketcher(hq, sketch.MustParams(pq, 10))
			est, _ := query.NewEstimator(hq)
			tab := sketch.NewTable()
			rng := stats.NewRNG(2)
			subset := bitvec.Range(0, 4)
			for _, profile := range pop.Profiles {
				s, err := sk.Sketch(rng, profile, subset)
				if err != nil {
					b.Fatal(err)
				}
				if err := tab.Add(sketch.Published{ID: profile.ID, Subset: subset, S: s}); err != nil {
					b.Fatal(err)
				}
			}
			src := est.TableSource(tab)
			v := bitvec.MustFromString("1010")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.Fraction(src, subset, v); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// writeBenchJSON measures every kernel and writes the results to path.
// quick shrinks the store replay benchmark for CI smoke runs.  cpusSpec and
// lanesSpec configure the core-count × lane-width matrix; an empty cpusSpec
// skips it.
func writeBenchJSON(path string, quick bool, cpusSpec, lanesSpec string) error {
	file := BenchFile{
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		AcceleratedLanes: prf.HasAcceleratedLanes(),
		Quick:            quick,
	}
	benches := kernelBenchmarks()
	benches = append(benches, tableBenchmarks()...)
	benches = append(benches, storeBenchmarks(quick)...)
	benches = append(benches, routerBenchmarks(quick)...)
	benches = append(benches, planBenchmarks(quick)...)
	benches = append(benches, gatewayBenchmarks()...)
	benches = append(benches, obsBenchmarks()...)
	for _, kb := range benches {
		r := testing.Benchmark(kb.fn)
		file.Kernels = append(file.Kernels, KernelResult{
			Name:        kb.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		})
		fmt.Printf("%-22s %12.1f ns/op %6d allocs/op\n",
			kb.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp())
	}
	if cpusSpec != "" {
		matrix, err := runMatrix(cpusSpec, lanesSpec)
		if err != nil {
			return err
		}
		file.Matrix = matrix
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
