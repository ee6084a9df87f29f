package engine

import (
	"bytes"
	"fmt"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// planEngine builds an engine pre-loaded with sketches of subset and the
// field's single-bit subsets.
func planEngine(t *testing.T, users int) (*Engine, bitvec.Subset, bitvec.IntField) {
	t.Helper()
	const p = 0.3
	h := prf.NewBiased(bytes.Repeat([]byte{0x77}, prf.MinKeyBytes), prf.MustProb(p))
	eng, err := New(h, sketch.MustParams(p, 10))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.NewSketcher(h, eng.Params())
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 4)
	field := bitvec.MustIntField(0, 3)
	subsets := append([]bitvec.Subset{subset}, query.FieldBitSubsets(field)...)
	rng := stats.NewRNG(19)
	for id := 1; id <= users; id++ {
		profile := bitvec.Profile{ID: bitvec.UserID(id), Data: bitvec.FromUint(uint64(id)%16, 4)}
		pubs, err := sk.SketchAll(rng, profile, subsets)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(pubs); err != nil {
			t.Fatal(err)
		}
	}
	return eng, subset, field
}

// TestEnginePlanCacheWarmRepeat proves the bitmap cache serves repeated
// queries bit-identically and is invalidated by ingest: the warm answer
// equals the cold one, and a post-ingest answer reflects the new record
// rather than the stale bitmap.
func TestEnginePlanCacheWarmRepeat(t *testing.T) {
	eng, subset, field := planEngine(t, 500)
	v := bitvec.MustFromString("1010")

	cold, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eng.cache.m); got == 0 {
		t.Fatal("cold query left the bitmap cache empty")
	}
	warm, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm repeat differs: cold %+v warm %+v", cold, warm)
	}
	// The uncached table pass must agree with the cached answer.
	uncached, err := eng.Estimator().Fraction(eng.Estimator().TableSource(eng.Table()), subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if uncached != warm {
		t.Fatalf("cached answer differs from the uncached pass: %+v vs %+v", warm, uncached)
	}

	// An interval-style estimator shares the cache across overlapping
	// queries and stays identical on the repeat too.
	m1, err := eng.FieldMean(field)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := eng.FieldMean(field)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("warm FieldMean differs: %+v vs %+v", m1, m2)
	}

	// Ingest invalidates: the next query must count the new record.
	h := eng.Estimator().Source()
	sk, err := sketch.NewSketcher(h, eng.Params())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(23)
	s, err := sk.Sketch(rng, bitvec.Profile{ID: 9001, Data: bitvec.MustFromString("1010")}, subset)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(sketch.Published{ID: 9001, Subset: subset, S: s}); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if after.Users != cold.Users+1 {
		t.Fatalf("post-ingest query served a stale cache: %d users, want %d", after.Users, cold.Users+1)
	}
	uncachedAfter, err := eng.Estimator().Fraction(eng.Estimator().TableSource(eng.Table()), subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if after != uncachedAfter {
		t.Fatalf("post-ingest cached answer differs from the uncached pass: %+v vs %+v", after, uncachedAfter)
	}
}

// TestEnginePlanCacheEviction bounds the cache in bytes, whatever the
// size of a bitmap: 5000 distinct bitmaps of a million-record view — 596 MB
// if all were kept — never hold more than the budget, an evicted key that is
// Put again is served again, and answers stay correct afterwards.
func TestEnginePlanCacheEviction(t *testing.T) {
	eng, subset, _ := planEngine(t, 64)
	const records = 1_000_000
	words := make([]uint64, records/64) // shared: the cache counts sizes, not arrays
	held := func() int {
		n := 0
		for k, e := range eng.cache.m {
			n += e.cost(k)
		}
		return n
	}
	for i := 0; i < 5000; i++ {
		v := bitvec.FromUint(uint64(i)%16, 4)
		if _, err := eng.Conjunction(subset, v); err != nil {
			t.Fatal(err)
		}
		// Distinct keys beyond the 16 possible values: synthesize entries
		// directly, as real queries over a 4-bit subset cannot exceed 16.
		eng.cache.Put(query.CacheKey{Entry: fmt.Sprint("synthetic-", i)}, 1, records, words)
		if eng.cache.bytes > planCacheBudget || eng.cache.bytes != held() {
			t.Fatalf("after %d bitmaps the cache counts %d bytes and holds %d, budget %d", i+1, eng.cache.bytes, held(), planCacheBudget)
		}
	}
	if n := len(eng.cache.m); n < planCacheBudget/2/(8*len(words)+1024) {
		t.Fatalf("the cache kept %d entries: eviction goes to about half the budget, not to nothing", n)
	}
	if _, ok := eng.cache.Get(query.CacheKey{Entry: "synthetic-0"}, 1, records); ok {
		t.Fatal("the first of 5000 bitmaps is still cached: nothing was evicted")
	}
	eng.cache.Put(query.CacheKey{Entry: "synthetic-0"}, 1, records, words)
	if _, ok := eng.cache.Get(query.CacheKey{Entry: "synthetic-0"}, 1, records); !ok {
		t.Fatal("a key Put again after its eviction is not served")
	}
	eng.cache.Put(query.CacheKey{Entry: "too-large"}, 1, 64*(planCacheBudget/8+1), make([]uint64, planCacheBudget/8+1))
	if _, ok := eng.cache.Get(query.CacheKey{Entry: "too-large"}, 1, 64*(planCacheBudget/8+1)); ok || eng.cache.bytes > planCacheBudget {
		t.Fatal("a bitmap larger than the budget was cached")
	}
	want, err := eng.Estimator().Fraction(eng.Estimator().TableSource(eng.Table()), subset, bitvec.MustFromString("0101"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Conjunction(subset, bitvec.MustFromString("0101"))
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("post-eviction answer differs from the uncached pass: %+v vs %+v", got, want)
	}
}

// TestPlanCacheChargesKeptWords: a bitmap evaluated under a filter that
// keeps k of a view's n records is ⌈k/64⌉ words, and the cache charges it
// 8·⌈k/64⌉ bytes plus its key and the fixed overhead — the keep mask beside
// it is the one entry a bit per record of the view — and the size the
// metrics gauges read is that sum.
func TestPlanCacheChargesKeptWords(t *testing.T) {
	const users = 1000 // ids 1 to 1000: the view is 16 words, a third of it 6
	eng, subset, _ := planEngine(t, users)
	pair := query.FractionEval{Subset: subset, Value: bitvec.MustFromString("0110")}
	plan := query.NewPlan()
	if _, err := plan.AddFraction(pair.Subset, pair.Value); err != nil {
		t.Fatal(err)
	}
	keep := &query.UserFilter{Key: "third", Keep: func(id bitvec.UserID) bool { return id%3 == 0 }}
	if _, err := eng.ExecutePlan(plan, keep); err != nil {
		t.Fatal(err)
	}
	const kept = users / 3
	bitmap, ok := eng.cache.m[query.CacheKey{Entry: pair.Key(), Filter: keep.Key}]
	if !ok || len(bitmap.words) != (kept+63)/64 {
		t.Fatalf("the filtered bitmap is cached %v with %d words, want %d for %d kept records", ok, len(bitmap.words), (kept+63)/64, kept)
	}
	mask, ok := eng.cache.m[query.CacheKey{Mask: true, Entry: subset.Key(), Filter: keep.Key}]
	if !ok || len(mask.words) != (users+63)/64 {
		t.Fatalf("the keep mask is cached %v with %d words, want %d", ok, len(mask.words), (users+63)/64)
	}
	want := 8*((kept+63)/64) + len(pair.Key()) + len(keep.Key) + planCacheEntryOverhead +
		8*((users+63)/64) + len(subset.Key()) + len(keep.Key) + planCacheEntryOverhead
	if bytes, entries := eng.cache.size(); bytes != want || entries != 2 {
		t.Fatalf("the cache charges %d bytes for %d entries, want %d for 2", bytes, entries, want)
	}
}

// TestEngineKeepMaskCachedPerFilterKey: a filter with a key has its keep
// mask built once per (subset, key) and generation — a repeat, a total
// count and a subset count all read the cached mask; another key or an
// ingest builds another — while a key-less filter never touches the
// cache, and the evaluation-bitmap counters count evaluation bitmaps only,
// whatever the filter.  A pair's bitmap is looked up under the filter's
// key (not at all under a key-less filter), so another key, or no filter,
// is a miss of its own.
func TestEngineKeepMaskCachedPerFilterKey(t *testing.T) {
	eng, subset, _ := planEngine(t, 300)
	plan := query.NewPlan()
	ref, err := plan.AddFraction(subset, bitvec.MustFromString("1010"))
	if err != nil {
		t.Fatal(err)
	}
	count := plan.AddSubsetRecords(subset)
	even := func(id bitvec.UserID) bool { return id%2 == 0 }
	third := func(id bitvec.UserID) bool { return id%3 == 0 }
	type counters struct{ hits, misses, maskHits, maskMisses uint64 }
	read := func() counters {
		c := eng.cache
		return counters{c.hits.Load(), c.misses.Load(), c.maskHits.Load(), c.maskMisses.Load()}
	}
	run := func(keep *query.UserFilter, wantRecords uint64, want counters) {
		t.Helper()
		res, err := eng.ExecutePlan(plan, keep)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Fraction(ref).Records; got != wantRecords || res.Count(count) != wantRecords {
			t.Fatalf("counted %d records (subset count %d), want %d", got, res.Count(count), wantRecords)
		}
		if got := read(); got != want {
			t.Fatalf("cache counters %+v, want %+v", got, want)
		}
	}
	// One mask lookup per subset and execution: the fraction and the subset
	// count read the same one.
	run(&query.UserFilter{Keep: even, Key: "even"}, 150, counters{0, 1, 0, 1})
	run(&query.UserFilter{Keep: even, Key: "even"}, 150, counters{1, 1, 1, 1})
	run(&query.UserFilter{Keep: third, Key: "third"}, 100, counters{1, 2, 1, 2})
	run(&query.UserFilter{Keep: even, Key: "even"}, 150, counters{2, 2, 2, 2})
	run(&query.UserFilter{Keep: third}, 100, counters{2, 2, 2, 2})
	run(nil, 300, counters{2, 3, 2, 2})
	if n, err := eng.Source(&query.UserFilter{Keep: even, Key: "even"}).TotalRecords(); err != nil || n != 4*150 {
		t.Fatalf("filtered total %d (err %v), want %d", n, err, 4*150)
	}
	if got, want := read(), (counters{2, 3, 3, 5}); got != want { // the other three subsets' masks are new
		t.Fatalf("after a filtered total the cache counters are %+v, want %+v", got, want)
	}
	// A write retires the subset's mask with its bitmaps.
	if err := eng.Ingest(sketch.Published{ID: 9002, Subset: subset, S: sketch.Sketch{Length: 10}}); err != nil {
		t.Fatal(err)
	}
	run(&query.UserFilter{Keep: even, Key: "even"}, 151, counters{2, 4, 3, 6})
}
