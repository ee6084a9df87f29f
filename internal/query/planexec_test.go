package query

import (
	"math/rand"
	"reflect"
	"runtime"
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
// and a bitmap serves a fraction after a histogram that names its
// (subset, value) pair, but a fraction's entry is its count alone, which
// no join reads: a histogram after fractions evaluates every pair.  A
// plan naming a pair both ways evaluates it once.  A cold sub-query is
// evaluated on the kept users of its subset only, so each cold subset
// fetches its mask first — built once for the three subsets, which hold
// the same 500 users and so one id column, and cached under each subset's
// key; a subset whose key holds no mask takes the one cached under
// another's over the same column, and asks the filter nothing.
func TestHistogramWarmIsAJoin(t *testing.T) {
	const users, kept = 500, 250 // ids 1 to 500, the odd ones kept
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
	// Cold: every sub-query over its subset's kept users, so every
	// subset's mask is fetched — built over the first subset's view and
	// taken by the other two, whose views hold the same id column.
	if evals, asks := run("cold histogram", hist, cache); evals != 3*kept || asks != users {
		t.Fatalf("cold histogram: %d evaluations of H and %d filter calls, want %d and %d", evals, asks, 3*kept, users)
	}
	var masks [][]uint64
	for _, s := range []bitvec.Subset{a, b, c} {
		e, ok := cache[CacheKey{Mask: true, Entry: SubsetKey(s), Filter: keep.Key}]
		if !ok || len(e.words) == 0 {
			t.Fatalf("no keep mask cached for subset %v", s)
		}
		masks = append(masks, e.words)
	}
	if &masks[0][0] != &masks[1][0] || &masks[0][0] != &masks[2][0] {
		t.Fatal("the three subsets hold one id column but their keep masks are not one array")
	}
	if evals, asks := run("warm histogram", hist, cache); evals != 0 || asks != 0 {
		t.Fatalf("warm histogram: %d evaluations of H and %d filter calls, want none", evals, asks)
	}
	// The fractions' pairs are two of the histogram's, over subsets whose
	// masks it built: no evaluation, no filter call.
	if evals, asks := run("fractions after the histogram", fracs, cache); evals != 0 || asks != 0 {
		t.Fatalf("fractions after the histogram: %d evaluations of H and %d filter calls, want none", evals, asks)
	}

	cache = mapCache{}
	if evals, _ := run("cold fractions", fracs, cache); evals != 2*kept {
		t.Fatalf("cold fractions: %d evaluations of H, want %d", evals, 2*kept)
	}
	// A join never reads a fraction's entry, which holds the count and no
	// words: every sub-query is evaluated.  The third's subset's mask is the
	// one the cache holds under the first subset's key, over the same id
	// column.
	if evals, asks := run("histogram after the fractions", hist, cache); evals != 3*kept || asks != 0 {
		t.Fatalf("histogram after the fractions: %d evaluations of H and %d filter calls, want %d and none", evals, asks, 3*kept)
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
	if evals, _ := run("a pair named three times", both, mapCache{}); evals != 3*kept {
		t.Fatalf("a plan naming 3 distinct pairs 5 times made %d evaluations of H, want %d", evals, 3*kept)
	}
}

// countedCache is a mapCache that sums what the executor reports it
// evaluated.
type countedCache struct {
	mapCache
	evals uint64
}

func (c *countedCache) Evaluated(n uint64) { c.evals += n }

// TestFilteredScanEvaluatesKeptOnly: a node evaluates H on the records its
// filter keeps and on no others.  A cold plan under a keyed filter that
// keeps k of n records evaluates H exactly k × entries times; the same plan
// under another key evaluates again, its bitmaps being another key's; an
// unfiltered execution after the filtered ones evaluates all n; a filter
// that keeps nobody evaluates nothing; and a filter without a key is
// evaluated under its mask every time, cached never.  What the cache is
// told it cost (engine_plan_evaluations_total) is what H was asked.
func TestFilteredScanEvaluatesKeptOnly(t *testing.T) {
	const users = 700 // ids 1 to 700: eleven windows, the last one short
	a, b := bitvec.MustSubset(0), bitvec.Range(0, 3)
	tab, _ := buildTable(t, dataset.UniformBinary(41, users, 3, 0.5), []bitvec.Subset{a, b}, 0.3, 10, 43)
	h := &countingSource{BitSource: testSource(0.3)}
	est, err := NewEstimator(h)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan()
	for _, pair := range []SubQuery{{Subset: a, Value: oneBit()}, {Subset: a, Value: zeroBit()}, {Subset: b, Value: bitvec.MustFromString("101")}} {
		if _, err := plan.AddFraction(pair.Subset, pair.Value); err != nil {
			t.Fatal(err)
		}
	}
	const entries = 3
	mod := func(m bitvec.UserID) func(bitvec.UserID) bool {
		return func(id bitvec.UserID) bool { return id%m == 0 }
	}
	cache := &countedCache{mapCache: mapCache{}}
	run := func(stage string, keep *UserFilter, want int64) {
		t.Helper()
		oracle, err := oracleOver(est, keep, tab).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		evalsBefore, reportedBefore := h.evals.Load(), cache.evals
		got, err := est.ExecutePlanOver(tab, plan, keep, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("%s: executed %+v, oracle %+v", stage, got, oracle)
		}
		evals, reported := h.evals.Load()-evalsBefore, cache.evals-reportedBefore
		if evals != want || reported != uint64(want) {
			t.Fatalf("%s: %d evaluations of H, %d reported to the cache, want %d", stage, evals, reported, want)
		}
	}
	third := &UserFilter{Key: "third", Keep: mod(3)}
	run("cold, keyed", third, entries*(users/3))
	run("warm, keyed", third, 0)
	run("cold, another key", &UserFilter{Key: "seventh", Keep: mod(7)}, entries*(users/7))
	run("unfiltered after filtered", nil, entries*users)
	run("unfiltered, warm", nil, 0)
	run("keeps nobody", &UserFilter{Key: "nobody", Keep: func(bitvec.UserID) bool { return false }}, 0)
	keyless := &UserFilter{Keep: mod(5)}
	run("key-less", keyless, entries*(users/5))
	run("key-less again", keyless, entries*(users/5))
	// A tenant's ids are one contiguous range: the windows before it keep
	// nobody.
	tenant := &UserFilter{Key: "tenant", Keep: func(id bitvec.UserID) bool { return id > 640 }}
	run("a contiguous range", tenant, entries*(users-640))
}

// scatteredOwner is an interleaved ownership predicate: about a third of
// the ids, in runs of a few, the way a ring's arcs fall over dense ids.
func scatteredOwner(id bitvec.UserID) bool {
	x := uint64(id/3) * 0x9E3779B97F4A7C15
	return x>>61 < 3
}

// maskOf returns the keep mask of pred over ids 0 to n-1.
func maskOf(n int, pred func(bitvec.UserID) bool) []uint64 {
	mask := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if pred(bitvec.UserID(i)) {
			mask[i>>6] |= 1 << uint(i&63)
		}
	}
	return mask
}

// TestSplitKeptEvensKeptRecords: a scan's shards hold about kept/parts kept
// records each, within a window of it, however the kept records lie — a
// tenant's contiguous id range, all of whose records would fall into one
// or two shards cut by record count, as well as an interleaved ownership
// filter — and the shards run back to back, each starting at its rank.
func TestSplitKeptEvensKeptRecords(t *testing.T) {
	const n, parts = 20_000, 4
	for name, mask := range map[string][]uint64{
		"contiguous range": maskOf(n, func(id bitvec.UserID) bool { return id >= 15_000 && id < 19_000 }),
		"interleaved":      maskOf(n, scatteredOwner),
		"no filter":        nil,
	} {
		kept := n
		if mask != nil {
			kept = int(popcount(mask))
		}
		shards := splitKept(mask, n, kept, parts)
		if len(shards) != parts {
			t.Fatalf("%s: %d shards, want %d", name, len(shards), parts)
		}
		rank := 0
		for i, s := range shards {
			if i > 0 && s.lo != shards[i-1].hi {
				t.Fatalf("%s: shard %d starts at window %d, the one before ends at %d", name, i, s.lo, shards[i-1].hi)
			}
			got := 0
			for w := s.lo; w < s.hi; w++ {
				got += windowKept(mask, n, w)
			}
			if s.rank != rank || got < kept/parts-64 || got > kept/parts+64 {
				t.Fatalf("%s: shard %d at rank %d (want %d) keeps %d records, want %d ± 64", name, i, s.rank, rank, got, kept/parts)
			}
			rank += got
		}
		if rank != kept {
			t.Fatalf("%s: the shards keep %d records, the mask %d", name, rank, kept)
		}
	}
}

// TestEvalBitmapsShardedMatchesSerial: the bitmaps a scan sharded across
// four workers builds equal, word for word, the ones one worker builds and
// the kept records' outcomes in view order — under filters whose shards
// meet inside an output word, so the word two workers share is written
// through the merge of their halves.
func TestEvalBitmapsShardedMatchesSerial(t *testing.T) {
	const users = 6000
	b := bitvec.Range(0, 3)
	tab, est := buildTable(t, dataset.UniformBinary(17, users, 3, 0.5), []bitvec.Subset{b}, 0.3, 10, 19)
	view, _ := tab.View(b)
	evals := []FractionEval{{Subset: b, Value: bitvec.MustFromString("101")}, {Subset: b, Value: bitvec.MustFromString("011")}}
	for name, pred := range map[string]func(bitvec.UserID) bool{
		"contiguous range": func(id bitvec.UserID) bool { return id > 1000 && id <= 4037 },
		"interleaved":      scatteredOwner,
		"no filter":        nil,
	} {
		var mask []uint64
		kept := view.Len()
		if pred != nil {
			mask = make([]uint64, (view.Len()+63)/64)
			for i := 0; i < view.Len(); i++ {
				if pred(view.ID(i)) {
					mask[i>>6] |= 1 << uint(i&63)
				}
			}
			kept = int(popcount(mask))
		}
		prev := runtime.GOMAXPROCS(1)
		serial := evalBitmaps(est.h, view, evals, mask, kept)
		runtime.GOMAXPROCS(4)
		sharded := evalBitmaps(est.h, view, evals, mask, kept)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("%s: four workers built other words than one", name)
		}
		for j, ev := range evals {
			if len(serial[j]) != (kept+63)/64 {
				t.Fatalf("%s: a bitmap of %d words over %d kept records", name, len(serial[j]), kept)
			}
			r := 0
			for i := 0; i < view.Len(); i++ {
				if pred != nil && !pred(view.ID(i)) {
					continue
				}
				want := sketch.Evaluate(est.h, view.ID(i), ev.Subset, ev.Value, view.Sketch(i))
				if got := serial[j][r>>6]>>uint(r&63)&1 == 1; got != want {
					t.Fatalf("%s: pair %d, kept record %d (view record %d): bit %v, H %v", name, j, r, i, got, want)
				}
				r++
			}
		}
	}
}

// TestPlanReadsOneTableState: every counter of a plan describes the same
// state of the table.  A writer adds users to subset A and then to B, so in
// every state of the table B's users are among A's; a plan that read A and B
// at different moments could see a user in B and not in A.  Unfiltered and
// uncached, and under a keyed filter with a cache, the plan's counts,
// fraction denominators, histogram and total must all agree with one
// another.
func TestPlanReadsOneTableState(t *testing.T) {
	const users = 3000
	est, err := NewEstimator(testSource(0.3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := bitvec.MustSubset(0), bitvec.MustSubset(1)
	rec := func(id int, s bitvec.Subset) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: s, S: sketch.Sketch{Key: uint64(id % 1024), Length: 10}}
	}
	// The table starts with the even users; the writer adds the odd ones.
	tab := sketch.NewTable()
	for id := 0; id < 2*users; id += 2 {
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
		for i := 0; i < users; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The new users sit between the held ones, from the centre of
			// the id order on and then from its start, where an insert
			// shifts half a column.
			id := 2*((users/2+i)%users) + 1
			if err := tab.Add(rec(id, a)); err != nil {
				t.Error(err)
				return
			}
			if err := tab.Add(rec(id, b)); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
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
// subset named twice and a single view, unfiltered and under two filters —
// one keeping a random half of the users, one a contiguous id range, so
// whole blocks are kept and dropped — each column's bitmap holding one bit
// per record its own mask keeps, column j holds exactly the bits of bitmap
// j for the kept users every view holds, in id order.
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
	half := make(map[bitvec.UserID]bool)
	for id := 0; id < 500; id++ {
		half[bitvec.UserID(id)] = rng.Intn(2) == 0
	}
	filters := map[string]func(bitvec.UserID) bool{
		"none":  nil,
		"half":  func(id bitvec.UserID) bool { return half[id] },
		"range": func(id bitvec.UserID) bool { return id >= 130 && id < 390 },
	}
	bit := func(words []uint64, i int) uint64 { return words[i>>6] >> uint(i&63) & 1 }
	for _, pick := range [][]int{{0, 1}, {1, 0}, {0, 1, 2}, {2, 5, 1, 0}, {0, 0}, {1, 2, 1}, {0, 3}, {3, 0}, {3}, {0, 4}, {4, 0}, {5}, {5, 1}, {0, 2, 5, 1, 2}} {
		for name, keeps := range filters {
			views, ids := make([]sketch.View, len(pick)), make([]sketch.IDs, len(pick))
			masks, bitmaps := make([][]uint64, len(pick)), make([][]uint64, len(pick))
			// The oracle: each view as a map from kept user to the bit at
			// the user's rank among the view's kept records.
			held := make([]map[bitvec.UserID]uint64, len(pick))
			for j, s := range pick {
				views[j], ids[j] = all[s], all[s].IDs()
				held[j] = make(map[bitvec.UserID]uint64)
				if keeps != nil {
					masks[j] = make([]uint64, (views[j].Len()+63)/64)
				}
				var kept []bitvec.UserID
				for i := 0; i < views[j].Len(); i++ {
					if id := views[j].ID(i); keeps == nil || keeps(id) {
						if masks[j] != nil {
							masks[j][i>>6] |= 1 << uint(i&63)
						}
						kept = append(kept, id)
					}
				}
				bitmaps[j] = make([]uint64, (len(kept)+63)/64)
				for r, id := range kept {
					b := uint64(rng.Intn(2))
					bitmaps[j][r>>6] |= b << uint(r&63)
					held[j][id] = b
				}
			}
			var want [][]uint64
			for i := 0; i < views[0].Len(); i++ {
				row := make([]uint64, len(views))
				everywhere := true
				for j := range views {
					b, ok := held[j][views[0].ID(i)]
					row[j], everywhere = b, everywhere && ok
				}
				if everywhere {
					want = append(want, row)
				}
			}
			cols, users := alignedColumns(ids, bitmaps, masks)
			if users != len(want) || len(cols) != len(views) {
				t.Fatalf("views %v, filter %s: joined %d users in %d columns, oracle %d in %d", pick, name, users, len(cols), len(want), len(views))
			}
			for j, col := range cols {
				if len(col) != (users+63)/64 {
					t.Fatalf("views %v: column %d holds %d words for %d users", pick, j, len(col), users)
				}
				for u, row := range want {
					if bit(col, u) != row[j] {
						t.Fatalf("views %v, filter %s: column %d bit %d is %d, oracle %d", pick, name, j, u, bit(col, u), row[j])
					}
				}
				if tail := users & 63; tail != 0 && col[len(col)-1]>>uint(tail) != 0 {
					t.Fatalf("views %v: column %d has bits set past its %d users", pick, j, users)
				}
			}
		}
	}
}
