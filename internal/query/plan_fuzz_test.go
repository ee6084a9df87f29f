package query

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// fuzzFixture caches the table the fuzzer executes every random plan
// against; building it once keeps iterations fast enough for CI fuzzing.
var fuzzFixture struct {
	once sync.Once
	tab  *sketch.Table
	// recs is the table's records, recs[:held], then those of as many
	// users it does not hold, which the fuzzer's writes add to a copy.
	recs []sketch.Published
	held int
	est  *Estimator
	err  error
}

// fuzzSubsets are the subsets random plans draw from.  The last two are
// deliberately never sketched, so plans routinely contain empty-record
// evaluations — a case the executors must agree on exactly.
func fuzzSubsets() []bitvec.Subset {
	return []bitvec.Subset{
		bitvec.MustSubset(0), bitvec.MustSubset(1), bitvec.MustSubset(2),
		bitvec.MustSubset(3), bitvec.MustSubset(4), bitvec.MustSubset(5),
		bitvec.Range(0, 2), bitvec.Range(0, 3), bitvec.Range(2, 5),
		bitvec.Range(0, 6), bitvec.MustSubset(7, 9),
	}
}

// unequalSubsets are two subsets the fixture sketches for some users only
// (see holdsUnequal), so a histogram over them and a subset every user holds
// joins columns of unequal membership.
func unequalSubsets() []bitvec.Subset {
	return []bitvec.Subset{bitvec.Range(1, 3), bitvec.MustSubset(2, 4)}
}

// holdsUnequal reports whether user i of the fixture has sketched unequal
// subset s: the first is missing every third user, the second 48 users of
// every 128 — whole 64-id blocks and the ends of others.
func holdsUnequal(s, i int) bool {
	if s == 0 {
		return i%3 != 0
	}
	return i%128 < 80
}

// fuzzTable lazily builds the shared fixture: 1200 six-bit profiles
// sketched over every subset except the last two of fuzzSubsets, and over
// the unequal subsets where holdsUnequal says so, the first 600 of them in
// the table — enough that eight pairs over a subset under a filter keeping
// half of it shard the scan.
func fuzzTable() (*sketch.Table, []sketch.Published, int, *Estimator, error) {
	fuzzFixture.once.Do(func() {
		const p = 0.3
		h := testSource(p)
		sk, err := sketch.NewSketcher(h, sketch.MustParams(p, 10))
		if err != nil {
			fuzzFixture.err = err
			return
		}
		est, err := NewEstimator(h)
		if err != nil {
			fuzzFixture.err = err
			return
		}
		subsets := fuzzSubsets()
		subsets = subsets[:len(subsets)-2]
		pop := dataset.UniformBinary(99, 1200, 6, 0.5)
		tab := sketch.NewTable()
		rng := stats.NewRNG(77)
		for i, profile := range pop.Profiles {
			sketched := subsets
			for s, b := range unequalSubsets() {
				if holdsUnequal(s, i) {
					sketched = append(sketched[:len(sketched):len(sketched)], b)
				}
			}
			pubs, err := sk.SketchAll(rng, profile, sketched)
			if err != nil {
				fuzzFixture.err = err
				return
			}
			fuzzFixture.recs = append(fuzzFixture.recs, pubs...)
			if i >= 600 {
				continue
			}
			fuzzFixture.held = len(fuzzFixture.recs)
			if err := tab.AddAll(pubs); err != nil {
				fuzzFixture.err = err
				return
			}
		}
		fuzzFixture.tab, fuzzFixture.est = tab, est
	})
	return fuzzFixture.tab, fuzzFixture.recs, fuzzFixture.held, fuzzFixture.est, fuzzFixture.err
}

// mapCache is a minimal BitmapCache for the fuzzer's cached legs.
type mapCache map[CacheKey]mapCacheEntry

type mapCacheEntry struct {
	gen     uint64
	records int
	words   []uint64
}

func (c mapCache) Get(key CacheKey, gen uint64, records int) ([]uint64, bool) {
	e, ok := c[key]
	if !ok || e.gen != gen || e.records != records {
		return nil, false
	}
	return e.words, true
}

func (c mapCache) Put(key CacheKey, gen uint64, records int, words []uint64) {
	c[key] = mapCacheEntry{gen, records, words}
}

func (c mapCache) Evaluated(uint64) {}

// FuzzPlanEquivalence drives random plans — arbitrary mixes of fraction
// entries (including never-sketched subsets), histograms, record counts
// and ownership filters — through the one-pass batched executor, cold and
// cache-warmed, and asserts the counters are bit-for-bit identical to the
// scalar serial oracle (oracle_test.go).  This is the differential
// guarantee the read path rests on: batching, packed words, sharding and
// caching are an execution strategy, never a semantics change.
//
// The cached leg is the never-stale proof for keep masks and for the
// bitmaps evaluated under them: ONE cache serves filter A, filter B
// (another key, another predicate), A again, no filter, a key-less filter,
// no filter again and another key-less filter, over a copy of the fixture
// table that fuzzer-chosen writes grow before each pass — held-back records
// landed as a batch — and every pass must equal the oracle under its own
// filter on the table as it then stands.  A mask or a bitmap
// served across keys, across a write, between a filtered and an unfiltered
// execution or to a filter without a key is a counter that differs.  Each
// pass also asks a histogram over the two unequal subsets and one every
// user holds, in a fuzzer-chosen order: a bitmap holds a bit per record its
// filter keeps, so the join reads each column's bit at that column's own
// rank, advanced over blocks the columns do not share — from bitmaps the
// cache serves on every repeat.  A rank read off the wrong column, or a
// word two scan workers share and one of them dropped, is a bin that
// differs.  The function runs at GOMAXPROCS 4, so a scan shards whatever
// the runner's core count.
func FuzzPlanEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 1, 0, 3, 1, 0, 2, 5, 3, 2, 4})
	f.Add([]byte{1, 7, 9, 2, 2, 1, 0, 1, 1, 0, 9, 1, 1})
	f.Add([]byte{2, 200, 3, 1, 10, 255, 1, 9, 0, 4, 3, 10, 2})
	f.Add([]byte{1, 31, 64, 5, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// Every value of two three-bit subsets, eight pairs a subset: under
	// filter A the scans shard, and their shards meet inside an output
	// word.
	f.Add([]byte{1, 5, 7, 0, 7, 0, 0, 0, 0, 7, 1, 0, 0, 0, 7, 0, 1, 0, 0, 7, 1, 1, 0, 0, 7, 0, 0, 1, 0, 7, 1, 0, 1, 0, 7, 0, 1, 1, 0, 7, 1, 1, 1, 0, 8, 0, 0, 0, 0, 8, 1, 0, 0, 0, 8, 0, 1, 0, 0, 8, 1, 1, 0, 0, 8, 0, 0, 1, 0, 8, 1, 0, 1, 0, 8, 0, 1, 1, 0, 8, 1, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		tab, recs, held, est, err := fuzzTable()
		if err != nil {
			t.Fatal(err)
		}
		subsets := fuzzSubsets()
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		valueFor := func(b bitvec.Subset) bitvec.Vector {
			v := bitvec.New(b.Len())
			for i := 0; i < b.Len(); i++ {
				if next()&1 == 1 {
					v.Set(i, true)
				}
			}
			return v
		}
		// The first three bytes choose the cold leg's filter and the
		// cached leg's writes; the rest build the plan.
		coldKeep := next()
		writes := rand.New(rand.NewSource(int64(next())<<8 | int64(next())))
		plan := NewPlan()
		for ops := 0; pos < len(data) && ops < 24; ops++ {
			switch next() % 6 {
			case 0, 1:
				b := subsets[int(next())%len(subsets)]
				if _, err := plan.AddFraction(b, valueFor(b)); err != nil {
					t.Fatalf("AddFraction of a well-shaped pair errored: %v", err)
				}
			case 2:
				k := 1 + int(next())%3
				subs := make([]SubQuery, k)
				for j := range subs {
					b := subsets[int(next())%len(subsets)]
					subs[j] = SubQuery{Subset: b, Value: valueFor(b)}
				}
				if fr := plan.Fractions(); len(fr) > 0 && next()&1 == 1 {
					// Guarded form: skippable when the guard finds records.
					if _, err := plan.AddHistogramGuarded(subs, FracRef(int(next())%len(fr))); err != nil {
						t.Fatalf("AddHistogramGuarded with a valid guard errored: %v", err)
					}
				} else if _, err := plan.AddHistogram(subs); err != nil {
					t.Fatalf("AddHistogram of well-shaped sub-queries errored: %v", err)
				}
			case 3:
				plan.AddSubsetRecords(subsets[int(next())%len(subsets)])
			case 4:
				plan.AddTotalRecords()
			case 5:
				// Shape validation must reject an empty subset at build
				// time on every path.
				if _, err := plan.AddFraction(bitvec.Subset{}, bitvec.New(0)); err == nil {
					t.Fatal("AddFraction accepted an empty subset")
				}
			}
		}
		mod := func(m, r uint64) func(bitvec.UserID) bool {
			return func(id bitvec.UserID) bool { return uint64(id)%m == r }
		}
		filterA := &UserFilter{Keep: mod(2, 0), Key: "A"}
		filterB := &UserFilter{Keep: mod(3, 1), Key: "B"}
		keep := []*UserFilter{nil, filterA, filterB}[coldKeep%3]

		want, err := oracleOver(est, keep, tab).Execute(plan)
		if err != nil {
			t.Fatalf("oracle errored: %v", err)
		}
		got, err := est.ExecutePlanOver(tab, plan, keep, nil)
		if err != nil {
			t.Fatalf("batched execution errored: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batched execution differs from the oracle:\noracle %+v\nbatch  %+v", want, got)
		}

		// The cached leg writes to a table of its own, which starts as the
		// fixture's and grows by held-back records only: a column never
		// gives a record back.
		grown := sketch.NewTable()
		all, err := grown.Probe(recs[:held])
		if err != nil {
			t.Fatal(err)
		}
		grown.Land(all)
		joined := append(unequalSubsets(), subsets[writes.Intn(len(subsets)-2)])
		subs := make([]SubQuery, 0, len(joined))
		for _, i := range writes.Perm(len(joined)) {
			b := joined[i]
			subs = append(subs, SubQuery{Subset: b, Value: bitvec.FromUint(uint64(writes.Intn(1<<b.Len())), b.Len())})
		}
		unequal := NewPlan()
		if _, err := unequal.AddHistogram(subs); err != nil {
			t.Fatalf("AddHistogram of well-shaped sub-queries errored: %v", err)
		}
		cache := mapCache{}
		for pass, keep := range []*UserFilter{filterA, filterB, filterA, nil, {Keep: mod(5, 2)}, nil, {Keep: mod(7, 3)}} {
			var batch []sketch.Published
			for n := writes.Intn(4); n > 0; n-- {
				batch = append(batch, recs[held+writes.Intn(len(recs)-held)])
			}
			b, err := grown.Probe(batch)
			if err != nil {
				t.Fatalf("probing held-back records errored: %v", err)
			}
			grown.Land(b)
			for _, plan := range []*Plan{plan, unequal} {
				want, err := oracleOver(est, keep, grown).Execute(plan)
				if err != nil {
					t.Fatalf("oracle errored: %v", err)
				}
				for run := 0; run < 2; run++ {
					warm, err := est.ExecutePlanOver(grown, plan, keep, cache)
					if err != nil {
						t.Fatalf("cached pass %d run %d errored: %v", pass, run, err)
					}
					if !reflect.DeepEqual(want, warm) {
						t.Fatalf("cached pass %d run %d differs from the oracle:\noracle %+v\ncached %+v", pass, run, want, warm)
					}
				}
			}
		}
	})
}
