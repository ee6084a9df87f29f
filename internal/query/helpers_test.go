package query

import (
	"bytes"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// skipIfShort skips large-population statistical tests under -short so CI
// smoke runs stay fast; the full suite still exercises them.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping large-population statistical test in short mode")
	}
}

// testSource returns the public p-biased function shared by the sketchers
// and estimators in these tests.
func testSource(p float64) *prf.Biased {
	return prf.NewBiased(bytes.Repeat([]byte{0x5a}, prf.MinKeyBytes), prf.MustProb(p))
}

// buildTable sketches every profile of pop on every subset and returns the
// resulting public table.  It fails the test on any sketching error.
func buildTable(t *testing.T, pop *dataset.Population, subsets []bitvec.Subset, p float64, length int, seed uint64) (*sketch.Table, *Estimator) {
	t.Helper()
	h := testSource(p)
	sk, err := sketch.NewSketcher(h, sketch.MustParams(p, length))
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(h)
	if err != nil {
		t.Fatal(err)
	}
	tab := sketch.NewTable()
	rng := stats.NewRNG(seed)
	for _, profile := range pop.Profiles {
		pubs, err := sk.SketchAll(rng, profile, subsets)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.AddAll(pubs); err != nil {
			t.Fatal(err)
		}
	}
	return tab, est
}

// buildSource is buildTable for tests that only ask estimators: the table
// behind its one adapter.
func buildSource(t *testing.T, pop *dataset.Population, subsets []bitvec.Subset, p float64, length int, seed uint64) (PartialSource, *Estimator) {
	t.Helper()
	tab, est := buildTable(t, pop, subsets, p, length, seed)
	return est.TableSource(tab), est
}

// sketchWithSource sketches every profile of pop on every subset against an
// arbitrary bit source (used by the PRF-vs-oracle ablation tests).
func sketchWithSource(h prf.BitSource, p float64, length int, pop *dataset.Population, subsets []bitvec.Subset) (*sketch.Table, error) {
	sk, err := sketch.NewSketcher(h, sketch.MustParams(p, length))
	if err != nil {
		return nil, err
	}
	tab := sketch.NewTable()
	rng := stats.NewRNG(2024)
	for _, profile := range pop.Profiles {
		pubs, err := sk.SketchAll(rng, profile, subsets)
		if err != nil {
			return nil, err
		}
		if err := tab.AddAll(pubs); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// groundTruthConjunction counts the exact fraction of pop satisfying the
// conjunction.
func groundTruthConjunction(pop *dataset.Population, c bitvec.Conjunction) float64 {
	n := 0
	for _, p := range pop.Profiles {
		if c.Evaluate(p.Data) {
			n++
		}
	}
	return float64(n) / float64(len(pop.Profiles))
}
