package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
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
	return planEngineWith(t, planSource(), users)
}

// planSource is the H of planEngine.
func planSource() prf.BitSource {
	return prf.NewBiased(bytes.Repeat([]byte{0x77}, prf.MinKeyBytes), prf.MustProb(0.3))
}

// planEngineWith is planEngine over h, which must be p = 0.3 biased.
func planEngineWith(t *testing.T, h prf.BitSource, users int) (*Engine, bitvec.Subset, bitvec.IntField) {
	t.Helper()
	const p = 0.3
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
// if all were kept — each Put twice, so that the doorkeeper lets the second
// into the main budget, never hold more than the budget, an evicted key that
// is Put again is served again, and answers stay correct afterwards.
func TestEnginePlanCacheEviction(t *testing.T) {
	eng, subset, _ := planEngine(t, 64)
	const records = 1_000_000
	words := make([]uint64, records/64) // shared: the cache counts sizes, not arrays
	for i := 0; i < 5000; i++ {
		v := bitvec.FromUint(uint64(i)%16, 4)
		if _, err := eng.Conjunction(subset, v); err != nil {
			t.Fatal(err)
		}
		// Distinct keys beyond the 16 possible values: synthesize entries
		// directly, as real queries over a 4-bit subset cannot exceed 16.
		key := query.CacheKey{Entry: fmt.Sprint("synthetic-", i)}
		eng.cache.Put(key, 1, records, words)
		eng.cache.Put(key, 1, records, words)
		if e := eng.cache.m[key]; e.waiting != nil {
			t.Fatalf("bitmap %d Put twice is still on probation", i)
		}
		checkPlanCacheCharges(t, eng.cache)
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

// checkPlanCacheCharges asserts the cache's books: bytes is the sum of its
// entries' costs, within the budget, and the probation count the sum over
// the entries on probation, which are the FIFO's elements, each its
// entry's own.
func checkPlanCacheCharges(t *testing.T, c *planCache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	held, waiting, onProbation := 0, 0, 0
	for k, e := range c.m {
		held += e.cost(k)
		if e.waiting != nil {
			waiting += e.cost(k)
			onProbation++
			if e.waiting.Value.(query.CacheKey) != k {
				t.Fatalf("the probation element of %q names %q", k.Entry, e.waiting.Value.(query.CacheKey).Entry)
			}
		}
	}
	if c.bytes != held || c.bytes > planCacheBudget || c.waiting != waiting || c.waiting > c.window || c.probation.Len() != onProbation {
		t.Fatalf("the cache counts %d bytes, %d on probation, %d probation elements; its entries cost %d, %d on probation in %d entries (budget %d, window %d)",
			c.bytes, c.waiting, c.probation.Len(), held, waiting, onProbation, planCacheBudget, c.window)
	}
}

// TestPlanCacheOversizedPutRetiresOlderEntry: a Put the budget refuses
// still removes the key's entry of an older generation, which no Get could
// be served from any more.
func TestPlanCacheOversizedPutRetiresOlderEntry(t *testing.T) {
	c := newPlanCache()
	key := query.CacheKey{Entry: "pair"}
	c.Put(key, 1, 64, make([]uint64, 1))
	c.Put(key, 2, 64*(planCacheBudget/8+1), make([]uint64, planCacheBudget/8+1))
	if bytes, entries, probation := c.size(); bytes != 0 || entries != 0 || probation != 0 {
		t.Fatalf("after an oversized Put the cache holds %d entries of %d bytes, %d on probation; want none", entries, bytes, probation)
	}
	checkPlanCacheCharges(t, c)
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
	// Both were computed once, so both wait on probation.
	if bytes, entries, probation := eng.cache.size(); bytes != want || entries != 2 || probation != want {
		t.Fatalf("the cache charges %d bytes for %d entries, %d on probation; want %d for 2, all on probation", bytes, entries, probation, want)
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

// TestPlanCacheAdmission: a bitmap computed for the first time waits on
// probation and stays only if it is asked for again.  A pair asked once is
// evaluated once and gone once the window has turned over; a pair asked
// twice inside the window is evaluated once and then served from the main
// budget, window or no window; a pair asked again after it was dropped is
// evaluated a second time and admitted at once, the doorkeeper having seen
// it.
func TestPlanCacheAdmission(t *testing.T) {
	const users = 500
	h := &countingSource{BitSource: planSource()}
	eng, subset, _ := planEngineWith(t, h, users)
	c := eng.cache
	ask := func(value string) (evals int64) {
		t.Helper()
		plan := query.NewPlan()
		if _, err := plan.AddFraction(subset, bitvec.MustFromString(value)); err != nil {
			t.Fatal(err)
		}
		before := h.evals.Load()
		if _, err := eng.ExecutePlan(plan, nil); err != nil {
			t.Fatal(err)
		}
		return h.evals.Load() - before
	}
	state := func(value string) string {
		e, ok := c.m[query.CacheKey{Entry: query.FractionEval{Subset: subset, Value: bitvec.MustFromString(value)}.Key()}]
		switch {
		case !ok:
			return "gone"
		case e.waiting != nil:
			return "on probation"
		}
		return "admitted"
	}
	// turnOver Puts a first-seen entry that fills the whole window, so
	// every other entry on probation is dropped.
	turns := 0
	turnOver := func() {
		key := query.CacheKey{Entry: fmt.Sprintf("turn-%03d", turns)} // 8 bytes: the words fill the rest
		words := make([]uint64, (planCacheWindow-planCacheEntryOverhead-len(key.Entry))/8)
		c.Put(key, 1, 64*len(words), words)
		if e := c.m[key]; e.waiting == nil || c.waiting != planCacheWindow {
			t.Fatalf("turn-over entry on probation %v, %d bytes on probation; want the window's %d", e.waiting != nil, c.waiting, planCacheWindow)
		}
		turns++
	}
	check := func(stage string, evals, wantEvals int64, value, wantState string, admitted, rejected uint64) {
		t.Helper()
		if evals != wantEvals || state(value) != wantState || c.admitted.Load() != admitted || c.rejected.Load() != rejected {
			t.Fatalf("%s: %d evaluations, %s, %d admitted, %d rejected; want %d, %s, %d, %d",
				stage, evals, state(value), c.admitted.Load(), c.rejected.Load(), wantEvals, wantState, admitted, rejected)
		}
	}

	check("asked once", ask("0001"), users, "0001", "on probation", 0, 0)
	turnOver()
	check("asked once, window turned over", 0, 0, "0001", "gone", 0, 1)
	check("asked twice", ask("0010"), users, "0010", "on probation", 0, 2) // dropping the turn-over entry
	check("asked twice", ask("0010"), 0, "0010", "admitted", 1, 2)
	turnOver()
	check("asked three times, window turned over", ask("0010"), 0, "0010", "admitted", 1, 2)
	check("asked again after the drop", ask("0001"), users, "0001", "admitted", 2, 2)
	turnOver()
	check("asked a third time, window turned over", ask("0001"), 0, "0001", "admitted", 2, 3)
	checkPlanCacheCharges(t, c)
}

// TestPlanCacheFalseAdmission: the doorkeeper admits a key it has not seen
// only by a Bloom filter's false positive — of 10 000 distinct keys each
// Put once, under 5 %.  The hash is fixed, so the figure is exact and
// pinned: a change of hash, width, probes or clearing point moves it.
func TestPlanCacheFalseAdmission(t *testing.T) {
	const keys, pinned = 10_000, 54
	c := newPlanCache()
	filter := string(bytes.Repeat([]byte{0xa5}, 32)) // a node's ownership filter key is 32 bytes
	for i := 0; i < keys; i++ {
		c.Put(query.CacheKey{Entry: fmt.Sprint("one-shot-", i), Filter: filter}, 1, 64, make([]uint64, 1))
	}
	if got := c.admitted.Load(); got != pinned || got >= keys/20 {
		t.Fatalf("%d of %d one-shot keys were admitted, pinned at %d (bound %d)", got, keys, pinned, keys/20)
	}
	checkPlanCacheCharges(t, c)
}

// TestPlanCacheAdmissionAnswersUnchanged: the cache decides what is kept,
// never what is counted.  A deck of plans — fractions, a histogram, a
// field mean, counts and a total, unfiltered and under two keyed filters
// and a key-less one — asked three times with writes between, through a
// window shrunk to a single mask so that nearly every first-seen entry is
// dropped by the next, answers exactly what the uncached executor does.
func TestPlanCacheAdmissionAnswersUnchanged(t *testing.T) {
	eng, subset, field := planEngine(t, 400)
	est := eng.Estimator()
	var deck []*query.Plan
	for v := uint64(0); v < 16; v += 5 {
		plan := query.NewPlan()
		if _, err := plan.AddFraction(subset, bitvec.FromUint(v, 4)); err != nil {
			t.Fatal(err)
		}
		plan.AddSubsetRecords(subset)
		deck = append(deck, plan)
	}
	hist := query.NewPlan()
	var subs []query.SubQuery
	for _, b := range query.FieldBitSubsets(field) {
		subs = append(subs, query.SubQuery{Subset: b, Value: bitvec.MustFromString("1")})
	}
	if _, err := hist.AddHistogram(subs); err != nil {
		t.Fatal(err)
	}
	hist.AddTotalRecords()
	mean := query.NewPlan()
	if _, err := est.PlanFieldMean(mean, field); err != nil {
		t.Fatal(err)
	}
	deck = append(deck, hist, mean, deck[0])
	filters := []*query.UserFilter{
		nil,
		{Key: "even", Keep: func(id bitvec.UserID) bool { return id%2 == 0 }},
		{Key: "third", Keep: func(id bitvec.UserID) bool { return id%3 == 0 }},
		{Keep: func(id bitvec.UserID) bool { return id%5 != 0 }},
	}
	eng.cache.window = (400+63)/64*8 + len(subset.Key()) + len("third") + planCacheEntryOverhead
	for pass := 0; pass < 3; pass++ {
		for _, keep := range filters {
			for i, plan := range deck {
				got, err := eng.ExecutePlan(plan, keep)
				if err != nil {
					t.Fatal(err)
				}
				want, err := est.ExecutePlanOver(eng.Table(), plan, keep, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d, plan %d: cached %+v, uncached %+v", pass, i, got, want)
				}
				checkPlanCacheCharges(t, eng.cache)
			}
		}
		id := bitvec.UserID(9000 + pass)
		for _, b := range append([]bitvec.Subset{subset}, query.FieldBitSubsets(field)...) {
			if err := eng.Ingest(sketch.Published{ID: id, Subset: b, S: sketch.Sketch{Length: 10}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if eng.cache.rejected.Load() == 0 || eng.cache.admitted.Load() == 0 {
		t.Fatalf("%d entries rejected and %d admitted: the deck exercised neither", eng.cache.rejected.Load(), eng.cache.admitted.Load())
	}
}

// TestPlanCacheConcurrentAdmission: eight goroutines Get the entries
// most recently Put, promoting some off probation, while four Put —
// first-seen small entries that overflow the window, and large ones Put
// twice, which the doorkeeper lets into the main budget until it evicts.
// Afterwards the books balance.  Run it under -race.
func TestPlanCacheConcurrentAdmission(t *testing.T) {
	c := newPlanCache()
	const puts, large = 8000, 48
	smallWords := make([]uint64, 256)                  // 2 kB: ≈ 120 fit the window
	largeWords := make([]uint64, planCacheBudget/8/24) // 1.4 MB: ≈ 24 fit the budget
	smallKey := func(i int) query.CacheKey { return query.CacheKey{Entry: fmt.Sprint("small-", i)} }
	largeKey := func(i int) query.CacheKey { return query.CacheKey{Mask: true, Entry: fmt.Sprint("large-", i/16%large)} }
	var latest atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// At least 2000 Gets each, and on until the Puts are done.
			for n := 0; n < 2000 || !done.Load(); n++ {
				i := int(latest.Load()) - (7*n+g)%64
				c.Get(smallKey(i), 1, 64*len(smallWords))
				c.Get(largeKey(i), 1, 64*len(largeWords))
			}
		}(g)
	}
	var putters sync.WaitGroup
	for g := 0; g < 4; g++ {
		putters.Add(1)
		go func(g int) {
			defer putters.Done()
			for i := g; i < puts; i += 4 {
				c.Put(smallKey(i), 1, 64*len(smallWords), smallWords)
				latest.Store(int64(i))
				if i%16 == 0 {
					c.Put(largeKey(i), 1, 64*len(largeWords), largeWords)
					c.Put(largeKey(i), 1, 64*len(largeWords), largeWords)
				}
			}
		}(g)
	}
	putters.Wait()
	done.Store(true)
	wg.Wait()
	checkPlanCacheCharges(t, c)
	if c.admitted.Load() == 0 || c.rejected.Load() == 0 || c.hits.Load() == 0 || c.maskHits.Load() == 0 {
		t.Fatalf("admitted %d, rejected %d, hits %d, mask hits %d: the run exercised too little",
			c.admitted.Load(), c.rejected.Load(), c.hits.Load(), c.maskHits.Load())
	}
}
