package query

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// twoFieldPopulation builds m users with two width-k integer attributes
// drawn uniformly at random.
func twoFieldPopulation(seed uint64, m, k int) (*dataset.Population, bitvec.IntField, bitvec.IntField) {
	a := bitvec.MustIntField(0, k)
	b := bitvec.MustIntField(k, k)
	rng := stats.NewRNG(seed)
	pop := &dataset.Population{Width: 2 * k, Profiles: make([]bitvec.Profile, m)}
	for u := 0; u < m; u++ {
		d := bitvec.New(2 * k)
		a.Encode(d, uint64(rng.Intn(1<<uint(k))))
		b.Encode(d, uint64(rng.Intn(1<<uint(k))))
		pop.Profiles[u] = bitvec.Profile{ID: bitvec.UserID(u + 1), Data: d}
	}
	return pop, a, b
}

func sumTruth(pop *dataset.Population, a, b bitvec.IntField, r int) float64 {
	count := 0.0
	for _, pr := range pop.Profiles {
		if a.Decode(pr.Data)+b.Decode(pr.Data) < 1<<uint(r) {
			count++
		}
	}
	return count / float64(pop.Size())
}

func TestSumLessThanPow2RecoversTruth(t *testing.T) {
	skipIfShort(t)
	const m = 40000
	const k = 4
	p := 0.25
	pop, a, b := twoFieldPopulation(101, m, k)
	subsets := append(FieldBitSubsets(a), FieldBitSubsets(b)...)
	tab, e := buildTable(t, pop, subsets, p, 10, 102)

	for _, r := range []int{2, 3, 4} {
		truth := sumTruth(pop, a, b, r)
		est, err := e.SumLessThanPow2(tab, a, b, r)
		if err != nil {
			t.Fatal(err)
		}
		if est.Queries != r+1 {
			t.Errorf("r=%d: used %d terms, want r+1=%d", r, est.Queries, r+1)
		}
		// The product estimator's variance grows with the number of bits in
		// each term, so the tolerance is loose but still far tighter than
		// the truth spread across r values (which ranges from ~0.03 to ~0.5).
		if math.Abs(est.Value-truth) > 0.1 {
			t.Errorf("r=%d: estimate %v vs truth %v", r, est.Value, truth)
		}
	}
}

func TestSumLessThanPow2EdgeCases(t *testing.T) {
	skipIfShort(t)
	const m = 20000
	const k = 3
	p := 0.25
	pop, a, b := twoFieldPopulation(111, m, k)
	subsets := append(FieldBitSubsets(a), FieldBitSubsets(b)...)
	tab, e := buildTable(t, pop, subsets, p, 10, 112)

	// r above the width: always true.
	est, err := e.SumLessThanPow2(tab, a, b, k+1)
	if err != nil || est.Value != 1 {
		t.Errorf("r=k+1: %v, %v", est.Value, err)
	}
	// r = 0: a = b = 0, a rare event; the estimate should be near the tiny
	// truth (1/64 for uniform 3-bit fields).
	truth := sumTruth(pop, a, b, 0)
	est, err = e.SumLessThanPow2(tab, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth) > 0.08 {
		t.Errorf("r=0: estimate %v vs truth %v", est.Value, truth)
	}
	// Validation failures.
	if _, err := e.SumLessThanPow2(tab, a, bitvec.MustIntField(0, 5), 2); !errors.Is(err, ErrMismatch) {
		t.Error("width mismatch accepted")
	}
	if _, err := e.SumLessThanPow2(tab, a, b, -1); !errors.Is(err, ErrMismatch) {
		t.Error("negative r accepted")
	}
	empty, e2 := buildTable(t, dataset.UniformBinary(1, 10, 2*k, 0.5), []bitvec.Subset{bitvec.MustSubset(0)}, p, 8, 7)
	if _, err := e2.SumLessThanPow2(empty, a, b, 2); !errors.Is(err, ErrNoSketches) {
		t.Error("missing sketches accepted")
	}
}

func TestNaiveSumThresholdQueries(t *testing.T) {
	cases := map[int]float64{0: 1, 1: 3, 3: 15, 8: 511}
	for r, want := range cases {
		if got := NaiveSumThresholdQueries(r); got != want {
			t.Errorf("NaiveSumThresholdQueries(%d) = %v, want %v", r, got, want)
		}
	}
	if NaiveSumThresholdQueries(-1) != 0 {
		t.Error("negative r should give 0")
	}
	// The Appendix E decomposition uses r+1 terms — exponentially fewer.
	for _, r := range []int{4, 8, 12} {
		if float64(r+1) >= NaiveSumThresholdQueries(r) {
			t.Errorf("r=%d: virtual-bit decomposition is not cheaper", r)
		}
	}
}

// TestSumLessThanPow2UnderConcurrentAdd pins that Appendix E's estimator
// reads one consistent state of the table: while a writer adds the held-back
// sketches of one bit subset in a fixed order, every estimate equals the
// estimate over the table after some prefix of that order — never a user
// set from one state evaluated against sketches from another.
func TestSumLessThanPow2UnderConcurrentAdd(t *testing.T) {
	const m, k, r = 4000, 2, 1
	pop, a, b := twoFieldPopulation(121, m, k)
	subsets := append(FieldBitSubsets(a), FieldBitSubsets(b)...)
	full, e := buildTable(t, pop, subsets, 0.25, 10, 122)

	// The writer adds the sketches of b's low bit for the highest ids, the
	// last the estimator's user loop reaches; each round's table starts
	// without them.
	churned := b.BitSubset(k)
	var records []sketch.Published
	for id := m - 7; id <= m; id++ {
		s, ok := full.Get(bitvec.UserID(id), churned)
		if !ok {
			t.Fatalf("user %d has no sketch of %v", id, churned)
		}
		records = append(records, sketch.Published{ID: bitvec.UserID(id), Subset: churned, S: s})
	}
	withheld := func() *sketch.Table {
		tab := sketch.NewTable()
		for _, s := range full.Subsets() {
			for _, p := range full.Snapshot(s) {
				if s.Equal(churned) && p.ID >= records[0].ID {
					continue
				}
				if err := tab.Add(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tab
	}
	type state struct {
		value uint64
		users int
	}
	estimate := func(tab *sketch.Table) state {
		n, err := e.SumLessThanPow2(tab, a, b, r)
		if err != nil {
			t.Fatal(err)
		}
		return state{math.Float64bits(n.Value), n.Users}
	}
	tab := withheld()
	valid := map[state]bool{estimate(tab): true}
	for _, rec := range records {
		if err := tab.Add(rec); err != nil {
			t.Fatal(err)
		}
		valid[estimate(tab)] = true
	}

	for round := 0; round < 25 && !t.Failed(); round++ {
		tab := withheld()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, rec := range records {
				if err := tab.Add(rec); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}()
		for try := 0; try < 4; try++ {
			if got := estimate(tab); !valid[got] {
				t.Errorf("round %d try %d: estimate %#x over %d users matches no prefix of the writes", round, try, got.value, got.users)
				break
			}
		}
		<-done
	}
}
