package sketchprivacy

// This file is the benchmark face of the experiment harness: one testing.B
// target per experiment in DESIGN.md's index (E1–E16), plus kernel
// benchmarks for the primitives the experiments spend their time in and the
// ablations DESIGN.md calls out.  Each ExN benchmark runs the corresponding
// experiment at quick scale; `go run ./cmd/sketchbench` runs the full-scale
// version (and with -benchjson writes the kernel numbers to BENCH.json so
// successive PRs have a perf trajectory to compare against).

import (
	"bytes"
	"fmt"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/experiment"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

func benchConfig() experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.Users = 2000
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(20060618 + i)
		tab, err := r.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per experiment (tables/figures index in DESIGN.md).
func BenchmarkE1IndicatorEquivalence(b *testing.B) { runExperiment(b, "e1") }
func BenchmarkE2SketchLength(b *testing.B)         { runExperiment(b, "e2") }
func BenchmarkE3Iterations(b *testing.B)           { runExperiment(b, "e3") }
func BenchmarkE4Correctness(b *testing.B)          { runExperiment(b, "e4") }
func BenchmarkE5PrivacyRatio(b *testing.B)         { runExperiment(b, "e5") }
func BenchmarkE6ErrorVsMAndK(b *testing.B)         { runExperiment(b, "e6") }
func BenchmarkE7BaselineComparison(b *testing.B)   { runExperiment(b, "e7") }
func BenchmarkE8CombineConditioning(b *testing.B)  { runExperiment(b, "e8") }
func BenchmarkE9Means(b *testing.B)                { runExperiment(b, "e9") }
func BenchmarkE10Intervals(b *testing.B)           { runExperiment(b, "e10") }
func BenchmarkE11SumThreshold(b *testing.B)        { runExperiment(b, "e11") }
func BenchmarkE12DecisionTree(b *testing.B)        { runExperiment(b, "e12") }
func BenchmarkE13TrustedParty(b *testing.B)        { runExperiment(b, "e13") }
func BenchmarkE14BitFlip(b *testing.B)             { runExperiment(b, "e14") }
func BenchmarkE15PartialKnowledge(b *testing.B)    { runExperiment(b, "e15") }
func BenchmarkE16WireSize(b *testing.B)            { runExperiment(b, "e16") }

// Kernel benchmarks: the primitives the experiments spend their time in.

func benchSource(p float64) *prf.Biased {
	return prf.NewBiased(bytes.Repeat([]byte{0x42}, prf.MinKeyBytes), prf.MustProb(p))
}

// BenchmarkSketchOne measures Algorithm 1 for one user and one 8-attribute
// subset (the per-user cost of participating).
func BenchmarkSketchOne(b *testing.B) {
	h := benchSource(0.3)
	sk, err := sketch.NewSketcher(h, sketch.MustParams(0.3, 10))
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
}

// BenchmarkEvaluate measures one public evaluation H(id, B, v, s) — the
// inner loop of Algorithm 2.
func BenchmarkEvaluate(b *testing.B) {
	h := benchSource(0.3)
	subset := bitvec.Range(0, 8)
	v := bitvec.FromUint(0x5A, 8)
	s := sketch.Sketch{Key: 123, Length: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sketch.Evaluate(h, bitvec.UserID(i), subset, v, s)
	}
}

// BenchmarkEvaluateKernel measures one H(id, B, v, s) evaluation on a held
// batch Kernel: the per-record cost of Algorithm 2's inner loop once the
// shared (B, v) tuple components have been encoded.
func BenchmarkEvaluateKernel(b *testing.B) {
	h := benchSource(0.3)
	subset := bitvec.Range(0, 8)
	v := bitvec.FromUint(0x5A, 8)
	s := sketch.Sketch{Key: 123, Length: 10}
	k := sketch.NewKernel(h, subset, v)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Evaluate(bitvec.UserID(i), s)
	}
}

// benchQueryTable builds the 10,000-user single-subset table shared by the
// conjunctive-query benchmarks.
func benchQueryTable(b *testing.B, h *prf.Biased, p float64) (*sketch.Table, bitvec.Subset) {
	b.Helper()
	const m = 10000
	pop := dataset.UniformBinary(1, m, 8, 0.5)
	sk, _ := sketch.NewSketcher(h, sketch.MustParams(p, 10))
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
	return tab, subset
}

// BenchmarkConjunctiveQuery measures Algorithm 2 over a 10,000-user table
// (per-query analyst cost, which scales linearly in M).  The record loop
// shards across GOMAXPROCS workers, so this number improves with cores; run
// with -cpu 1,4 to see the scaling.
func BenchmarkConjunctiveQuery(b *testing.B) {
	p := 0.25
	h := benchSource(p)
	est, _ := query.NewEstimator(h)
	tab, subset := benchQueryTable(b, h, p)
	src := est.TableSource(tab)
	v := bitvec.MustFromString("1010")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.Fraction(src, subset, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountMatchesBatch measures Algorithm 2's record loop on a single
// goroutine over the same 10,000-record table — the Stage and Word calls a
// plan's scan worker makes per 64 records, with no goroutine or estimator
// overhead.
func BenchmarkCountMatchesBatch(b *testing.B) {
	p := 0.25
	h := benchSource(p)
	tab, subset := benchQueryTable(b, h, p)
	records, _ := tab.View(subset)
	v := bitvec.MustFromString("1010")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sketch.CountMatches(h, records, subset, v)
	}
}

// BenchmarkPerturbationMatrix measures building and conditioning the
// Appendix F matrix for k=10.
func BenchmarkPerturbationMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if query.Conditioning(10, 0.4) <= 0 {
			b.Fatal("bad condition number")
		}
	}
}

// Ablation benchmarks called out in DESIGN.md.

// BenchmarkAblationP sweeps the bias p: closer to 1/2 costs more Algorithm 1
// iterations per sketch (the privacy/utility dial's runtime face).
func BenchmarkAblationP(b *testing.B) {
	for _, p := range []float64{0.26, 0.35, 0.45} {
		b.Run(fmt.Sprintf("p=%.2f", p), func(b *testing.B) {
			h := benchSource(p)
			sk, err := sketch.NewSketcher(h, sketch.MustParams(p, 12))
			if err != nil {
				b.Fatal(err)
			}
			subset := bitvec.Range(0, 4)
			rng := stats.NewRNG(3)
			profile := bitvec.Profile{ID: 1, Data: bitvec.FromUint(9, 4)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profile.ID = bitvec.UserID(i + 1)
				if _, err := sk.Sketch(rng, profile, subset); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOracle compares the SHA-256-backed PRF against the truly
// random oracle on the same sketching workload (the hash-instantiation
// ablation: utility identical, cost differs).
func BenchmarkAblationOracle(b *testing.B) {
	p := 0.3
	sources := map[string]prf.BitSource{
		"sha256-prf":    benchSource(p),
		"random-oracle": prf.NewOracle(7, prf.MustProb(p)),
	}
	for name, h := range sources {
		b.Run(name, func(b *testing.B) {
			sk, err := sketch.NewSketcher(h, sketch.MustParams(p, 10))
			if err != nil {
				b.Fatal(err)
			}
			subset := bitvec.Range(0, 4)
			rng := stats.NewRNG(4)
			profile := bitvec.Profile{ID: 1, Data: bitvec.FromUint(5, 4)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profile.ID = bitvec.UserID(i + 1)
				if _, err := sk.Sketch(rng, profile, subset); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
