package query

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
)

// countingSource counts the evaluations of H.  It is a plain BitSource, so
// kernels take their one-call-per-record path and every evaluation shows.
type countingSource struct {
	prf.BitSource
	evals atomic.Int64
}

func (c *countingSource) Bit(parts ...[]byte) bool {
	c.evals.Add(1)
	return c.BitSource.Bit(parts...)
}

// TestHistogramWarmIsAJoin: a histogram's sub-queries are evaluation
// bitmaps like any fraction entry's, so with a cache attached the second
// execution of a histogram plan under a keyed filter evaluates H zero
// times and asks the filter about no user — what is left is the join —
// and a bitmap serves whichever kind of entry names its (subset, value)
// pair: a fraction after a histogram, a histogram after fractions.
func TestHistogramWarmIsAJoin(t *testing.T) {
	const users = 500
	a, b, c := bitvec.MustSubset(0), bitvec.MustSubset(1), bitvec.Range(0, 2)
	tab, _ := buildTable(t, dataset.UniformBinary(31, users, 3, 0.5), []bitvec.Subset{a, b, c}, 0.3, 10, 32)
	h := &countingSource{BitSource: testSource(0.3)}
	est, err := NewEstimator(h)
	if err != nil {
		t.Fatal(err)
	}
	var asked int
	keep := &UserFilter{Key: "odd", Keep: func(id bitvec.UserID) bool { asked++; return id%2 == 1 }}
	unasked := &UserFilter{Key: "odd", Keep: func(id bitvec.UserID) bool { return id%2 == 1 }}

	subs := []SubQuery{{Subset: a, Value: oneBit()}, {Subset: b, Value: oneBit()}, {Subset: c, Value: bitvec.MustFromString("10")}}
	hist := NewPlan()
	if _, err := hist.AddHistogram(subs); err != nil {
		t.Fatal(err)
	}
	fracs := NewPlan()
	for _, s := range subs[:2] {
		if _, err := fracs.AddFraction(s.Subset, s.Value); err != nil {
			t.Fatal(err)
		}
	}
	// run executes plan and returns how often H was evaluated and the
	// filter asked; the answer must be the oracle's.
	run := func(stage string, plan *Plan, cache BitmapCache) (evals int64, asks int) {
		t.Helper()
		want, err := oracleOver(est, unasked, tab).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		evalsBefore, askedBefore := h.evals.Load(), asked
		got, err := est.ExecutePlanOver(tab, plan, keep, cache)
		if err != nil {
			t.Fatal(err)
		}
		evals, asks = h.evals.Load()-evalsBefore, asked-askedBefore
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: executed %+v, oracle %+v", stage, got, want)
		}
		return evals, asks
	}

	cache := mapCache{}
	// Cold: every sub-query over its subset's whole view, the mask of the
	// one view the join is driven from.
	if evals, asks := run("cold histogram", hist, cache); evals != 3*users || asks != users {
		t.Fatalf("cold histogram: %d evaluations of H and %d filter calls, want %d and %d", evals, asks, 3*users, users)
	}
	if evals, asks := run("warm histogram", hist, cache); evals != 0 || asks != 0 {
		t.Fatalf("warm histogram: %d evaluations of H and %d filter calls, want none", evals, asks)
	}
	// The fractions' pairs are two of the histogram's: no evaluation, and
	// only the second subset's mask is new.
	if evals, asks := run("fractions after the histogram", fracs, cache); evals != 0 || asks != users {
		t.Fatalf("fractions after the histogram: %d evaluations of H and %d filter calls, want 0 and %d", evals, asks, users)
	}

	cache = mapCache{}
	if evals, _ := run("cold fractions", fracs, cache); evals != 2*users {
		t.Fatalf("cold fractions: %d evaluations of H, want %d", evals, 2*users)
	}
	if evals, asks := run("histogram after the fractions", hist, cache); evals != users || asks != 0 {
		t.Fatalf("histogram after the fractions: %d evaluations of H and %d filter calls, want %d (its third sub-query) and 0", evals, asks, users)
	}

	// One plan naming a pair both ways evaluates it once.
	both := NewPlan()
	if _, err := both.AddFraction(a, oneBit()); err != nil {
		t.Fatal(err)
	}
	for _, s := range [][]SubQuery{subs[:2], subs[1:]} {
		if _, err := both.AddHistogram(s); err != nil {
			t.Fatal(err)
		}
	}
	if evals, _ := run("a pair named three times", both, mapCache{}); evals != 3*users {
		t.Fatalf("a plan naming 3 distinct pairs 5 times made %d evaluations of H, want %d", evals, 3*users)
	}
}

// TestPlanReadsOneTableState: every counter of a plan describes the same
// state of the table.  A writer adds a user to subset A and then to B, and
// removes them from B and then from A, so in every state of the table B's
// users are among A's; a plan that read A and B at different moments could
// see a user in B and not in A.  Unfiltered and uncached, and under a keyed
// filter with a cache, the plan's counts, fraction denominators, histogram
// and total must all agree with one another.
func TestPlanReadsOneTableState(t *testing.T) {
	const users, churn = 3000, 64
	est, err := NewEstimator(testSource(0.3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := bitvec.MustSubset(0), bitvec.MustSubset(1)
	rec := func(id int, s bitvec.Subset) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: s, S: sketch.Sketch{Key: uint64(id % 1024), Length: 10}}
	}
	tab := sketch.NewTable()
	for id := 0; id < users; id++ {
		if err := tab.AddAll([]sketch.Published{rec(id, a), rec(id, b)}); err != nil {
			t.Fatal(err)
		}
	}
	plan := NewPlan()
	fa, _ := plan.AddFraction(a, oneBit())
	fb, _ := plan.AddFraction(b, oneBit())
	hist, err := plan.AddHistogram([]SubQuery{{Subset: b, Value: oneBit()}, {Subset: a, Value: zeroBit()}})
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := plan.AddSubsetRecords(a), plan.AddSubsetRecords(b)
	plan.AddTotalRecords()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The churned users sit at the end of the id order and in the
			// middle of it, where a removal shifts half a column.
			id := users + i%churn
			if i%2 == 1 {
				id = users/2 + i%churn
				tab.Remove(bitvec.UserID(id), b)
				tab.Remove(bitvec.UserID(id), a)
			}
			if err := tab.Add(rec(id, a)); err != nil {
				t.Error(err)
				return
			}
			if err := tab.Add(rec(id, b)); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				tab.Remove(bitvec.UserID(id), b)
				tab.Remove(bitvec.UserID(id), a)
			}
		}
	}()
	cache := mapCache{}
	third := &UserFilter{Key: "third", Keep: func(id bitvec.UserID) bool { return id%3 == 0 }}
	for try := 0; try < 300 && !t.Failed(); try++ {
		keep, c := (*UserFilter)(nil), BitmapCache(nil)
		if try%2 == 1 {
			keep, c = third, cache
		}
		res, err := est.ExecutePlanOver(tab, plan, keep, c)
		if err != nil {
			t.Fatal(err)
		}
		na, nb := res.Count(ca), res.Count(cb)
		switch {
		case na < nb:
			t.Errorf("try %d: %d users in A and %d in B: B was read in a later state than A", try, na, nb)
		case res.Fraction(fa).Records != na || res.Fraction(fb).Records != nb:
			t.Errorf("try %d: fractions over %d and %d records, counts %d and %d", try, res.Fraction(fa).Records, res.Fraction(fb).Records, na, nb)
		case res.Histogram(hist).Users != nb:
			t.Errorf("try %d: the histogram joins %d users, B holds %d, all of them in A", try, res.Histogram(hist).Users, nb)
		case res.Total != na+nb:
			t.Errorf("try %d: total %d, counts %d + %d", try, res.Total, na, nb)
		}
	}
	close(stop)
	<-done
}

// TestAlignedColumnsMatchMapOracle differences the sort-merge join against
// a map: over views of unequal length, disjoint ones, an empty one, one
// subset named twice and a single view, masked and not, column j holds
// exactly the bits of bitmap j for the users every view holds, in id order.
func TestAlignedColumnsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := sketch.NewTable()
	subsets := make([]bitvec.Subset, 6)
	holds := []func(id int) bool{
		func(id int) bool { return id < 300 },               // 0: the first 300 users
		func(id int) bool { return id%2 == 0 },              // 1: every other user, past 0's end
		func(id int) bool { return id >= 150 && id < 450 },  // 2: overlaps 0 and 1
		func(id int) bool { return false },                  // 3: nobody
		func(id int) bool { return id >= 400 },              // 4: disjoint from 0
		func(id int) bool { return id%64 == 63 || id < 70 }, // 5: sparse, word edges
	}
	for s := range subsets {
		subsets[s] = bitvec.MustSubset(s)
		for id := 0; id < 500; id++ {
			if holds[s](id) {
				if err := tab.Add(sketch.Published{ID: bitvec.UserID(id), Subset: subsets[s], S: sketch.Sketch{Key: uint64(id), Length: 10}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	all := tab.Views(subsets, false)
	random := func(n int) []uint64 {
		words := make([]uint64, (n+63)/64)
		for w := range words {
			words[w] = rng.Uint64()
		}
		return words
	}
	bit := func(words []uint64, i int) uint64 { return words[i>>6] >> uint(i&63) & 1 }
	for _, pick := range [][]int{{0, 1}, {1, 0}, {0, 1, 2}, {2, 5, 1, 0}, {0, 0}, {1, 2, 1}, {0, 3}, {3, 0}, {3}, {0, 4}, {4, 0}, {5}, {5, 1}} {
		views, ids, bitmaps := make([]sketch.View, len(pick)), make([]sketch.IDs, len(pick)), make([][]uint64, len(pick))
		for j, s := range pick {
			views[j], ids[j], bitmaps[j] = all[s], all[s].IDs(), random(all[s].Len())
		}
		for _, mask := range [][]uint64{nil, random(views[0].Len())} {
			// The oracle: each view as a map from user to bit, the users of
			// view 0 in id order, kept by their position in view 0.
			bits := make([]map[bitvec.UserID]uint64, len(views))
			for j, v := range views {
				bits[j] = make(map[bitvec.UserID]uint64, v.Len())
				for i := 0; i < v.Len(); i++ {
					bits[j][v.ID(i)] = bit(bitmaps[j], i)
				}
			}
			var want [][]uint64
			for i := 0; i < views[0].Len(); i++ {
				row := make([]uint64, len(views))
				everywhere := mask == nil || bit(mask, i) == 1
				for j := range views {
					b, ok := bits[j][views[0].ID(i)]
					row[j], everywhere = b, everywhere && ok
				}
				if everywhere {
					want = append(want, row)
				}
			}
			cols, users := alignedColumns(ids, bitmaps, mask)
			if users != len(want) || len(cols) != len(views) {
				t.Fatalf("views %v, mask %v: joined %d users in %d columns, oracle %d in %d", pick, mask != nil, users, len(cols), len(want), len(views))
			}
			for j, col := range cols {
				if len(col) != (users+63)/64 {
					t.Fatalf("views %v: column %d holds %d words for %d users", pick, j, len(col), users)
				}
				for u, row := range want {
					if bit(col, u) != row[j] {
						t.Fatalf("views %v, mask %v: column %d bit %d is %d, oracle %d", pick, mask != nil, j, u, bit(col, u), row[j])
					}
				}
				if tail := users & 63; tail != 0 && col[len(col)-1]>>uint(tail) != 0 {
					t.Fatalf("views %v: column %d has bits set past its %d users", pick, j, users)
				}
			}
		}
	}
}
