package engine

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/obs"
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
		eng.cache.Put(key, 1, records, 0, words)
		eng.cache.Put(key, 1, records, 0, words)
		if e := eng.cache.m[key]; e.waiting != 0 {
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
	eng.cache.Put(query.CacheKey{Entry: "synthetic-0"}, 1, records, 0, words)
	if _, ok := eng.cache.Get(query.CacheKey{Entry: "synthetic-0"}, 1, records); !ok {
		t.Fatal("a key Put again after its eviction is not served")
	}
	eng.cache.Put(query.CacheKey{Entry: "too-large"}, 1, 64*(planCacheBudget/8+1), 0, make([]uint64, planCacheBudget/8+1))
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
// entries' keys and bitmaps and of the distinct mask arrays they hold,
// within the budget, and the probation count the same sum over the
// entries on probation; each of those has exactly one live slot in the
// probation ring, the ring's live slots are those and no others, and the
// ring holds at most 2·live + ringSlack slots, none when nothing waits,
// every slot outside its queue zero; the holder counts are the entries
// holding each mask array.
func checkPlanCacheCharges(t *testing.T, c *planCache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	held, waiting, onProbation := 0, 0, 0
	counts := make(map[*uint64]holders)
	for k, e := range c.m {
		// A bitmap's words are its own; a mask's are charged with the
		// first entry holding its array.
		var h holders
		if shares(k, e.words) {
			h = counts[&e.words[0]]
		}
		if h.all++; h.all == 1 {
			held += 8 * len(e.words)
		}
		held += keyCost(k)
		if e.waiting != 0 {
			if h.waiting++; h.waiting == 1 {
				waiting += 8 * len(e.words)
			}
			waiting += keyCost(k)
			onProbation++
		}
		if shares(k, e.words) {
			counts[&e.words[0]] = h
		}
	}
	if !reflect.DeepEqual(counts, c.holders) {
		t.Fatalf("the cache counts holders %v, its entries hold %v", c.holders, counts)
	}
	if c.bytes != held || c.bytes > planCacheBudget || c.waiting != waiting || c.waiting > c.window {
		t.Fatalf("the cache counts %d bytes, %d on probation; its entries cost %d, %d on probation in %d entries (budget %d, window %d)",
			c.bytes, c.waiting, held, waiting, onProbation, planCacheBudget, c.window)
	}
	checkProbationRing(t, c, onProbation)
}

// checkProbationRing asserts that the probation ring queues one live slot
// for each of the live entries on probation and no other, that live counts
// them, and that it is within its bound.
func checkProbationRing(t *testing.T, c *planCache, live int) {
	t.Helper()
	p := &c.probation
	if p.live != live || p.queued > len(p.ring) || live == 0 && p.ring != nil || len(p.ring) > 2*live+ringSlack {
		t.Fatalf("the probation ring has %d slots, %d queued, and counts %d live; %d entries are on probation (bound %d slots, none when nothing waits)",
			len(p.ring), p.queued, p.live, live, 2*live+ringSlack)
	}
	liveSlots := make(map[query.CacheKey]bool)
	for i := range p.ring {
		s := p.ring[(p.head+i)%len(p.ring)]
		switch {
		case i >= p.queued:
			if s != (probationSlot{}) {
				t.Fatalf("the probation ring keeps %q (seq %d) outside its queue", s.key.Entry, s.seq)
			}
		case c.queuedAs(s):
			if liveSlots[s.key] {
				t.Fatalf("%q has two live probation slots", s.key.Entry)
			}
			liveSlots[s.key] = true
		}
	}
	if len(liveSlots) != live {
		t.Fatalf("the probation ring queues %d live slots for %d entries on probation", len(liveSlots), live)
	}
}

// TestPlanCacheOversizedPutRetiresOlderEntry: a Put the budget refuses
// still removes the key's entry of an older generation, which no Get could
// be served from any more.
func TestPlanCacheOversizedPutRetiresOlderEntry(t *testing.T) {
	c := newPlanCache()
	key := query.CacheKey{Entry: "pair"}
	c.Put(key, 1, 64, 0, make([]uint64, 1))
	c.Put(key, 2, 64*(planCacheBudget/8+1), 0, make([]uint64, planCacheBudget/8+1))
	if bytes, entries, probation := c.size(); bytes != 0 || entries != 0 || probation != 0 {
		t.Fatalf("after an oversized Put the cache holds %d entries of %d bytes, %d on probation; want none", entries, bytes, probation)
	}
	checkPlanCacheCharges(t, c)
}

// TestPlanCacheChargesKeptWords: a bitmap a histogram evaluated under a
// filter that keeps k of a view's n records is ⌈k/64⌉ words, and the cache
// charges it 8·⌈k/64⌉ bytes plus its key and the fixed overhead — the keep
// mask beside it is the one entry a bit per record of the view — and the
// size the metrics gauges read is that sum.
func TestPlanCacheChargesKeptWords(t *testing.T) {
	const users = 1000 // ids 1 to 1000: the view is 16 words, a third of it 6
	eng, subset, _ := planEngine(t, users)
	pair := query.FractionEval{Subset: subset, Value: bitvec.MustFromString("0110")}
	plan := query.NewPlan()
	if _, err := plan.AddHistogram([]query.SubQuery{pair}); err != nil {
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
	mask, ok := eng.cache.m[query.CacheKey{Mask: true, Entry: query.SubsetKey(subset), Filter: keep.Key}]
	if !ok || len(mask.words) != (users+63)/64 {
		t.Fatalf("the keep mask is cached %v with %d words, want %d", ok, len(mask.words), (users+63)/64)
	}
	want := 8*((kept+63)/64) + len(pair.Key()) + len(keep.Key) + planCacheEntryOverhead +
		8*((users+63)/64) + len(query.SubsetKey(subset)) + len(keep.Key) + planCacheEntryOverhead
	// Both were computed once, so both wait on probation.
	if bytes, entries, probation := eng.cache.size(); bytes != want || entries != 2 || probation != want {
		t.Fatalf("the cache charges %d bytes for %d entries, %d on probation; want %d for 2, all on probation", bytes, entries, probation, want)
	}
}

// TestPlanCacheChargesSharedMaskOnce: the ten prefix subsets of a field
// hold the same users, so a filtered plan over all ten caches one keep mask
// under ten keys, and the cache charges the mask's words once beside the
// ten keys — a refund of the words waits for the last key to go.
func TestPlanCacheChargesSharedMaskOnce(t *testing.T) {
	const users = 1000
	h := planSource()
	eng, err := New(h, sketch.MustParams(0.3, 10))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.NewSketcher(h, eng.Params())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := query.FieldPrefixSubsets(bitvec.MustIntField(0, 10))
	rng := stats.NewRNG(19)
	for id := 1; id <= users; id++ {
		pubs, err := sk.SketchAll(rng, bitvec.Profile{ID: bitvec.UserID(id), Data: bitvec.FromUint(uint64(id)%1024, 10)}, prefixes)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(pubs); err != nil {
			t.Fatal(err)
		}
	}
	plan := query.NewPlan()
	counts := make([]query.CountRef, len(prefixes))
	for i, b := range prefixes {
		counts[i] = plan.AddSubsetRecords(b)
	}
	keep := &query.UserFilter{Key: "third", Keep: func(id bitvec.UserID) bool { return id%3 == 0 }}
	res, err := eng.ExecutePlan(plan, keep)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range counts {
		if got := res.Count(ref); got != users/3 {
			t.Fatalf("the filter keeps %d records of P%d, want %d", got, i+1, users/3)
		}
	}
	c := eng.cache
	var keys []query.CacheKey
	want := 8 * ((users + 63) / 64)
	for k, e := range c.m {
		if !k.Mask || len(e.words) != (users+63)/64 || &e.words[0] != &c.m[query.CacheKey{Mask: true, Entry: query.SubsetKey(prefixes[0]), Filter: keep.Key}].words[0] {
			t.Fatalf("the cache holds %q (mask %v) over %d words, want P1's mask under every prefix's key", k.Entry, k.Mask, len(e.words))
		}
		keys = append(keys, k)
		want += keyCost(k)
	}
	if len(keys) != len(prefixes) {
		t.Fatalf("the cache holds %d masks, want one under each of %d keys", len(keys), len(prefixes))
	}
	if bytes, entries, probation := c.size(); bytes != want || entries != len(prefixes) || probation != want {
		t.Fatalf("the cache charges %d bytes for %d entries, %d on probation; want one mask's words and ten keys, %d, all on probation", bytes, entries, probation, want)
	}
	checkPlanCacheCharges(t, c)
	// The words go with the last key, and not before.
	for i, k := range keys {
		c.mu.Lock()
		c.drop(k)
		c.mu.Unlock()
		if want -= keyCost(k); i == len(keys)-1 {
			want -= 8 * ((users + 63) / 64)
		}
		if bytes, _, probation := c.size(); bytes != want || probation != want {
			t.Fatalf("with %d keys dropped the cache charges %d bytes, %d on probation; want %d", i+1, bytes, probation, want)
		}
		checkPlanCacheCharges(t, c)
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
	// The other three subsets hold subset's users, so one id column, and
	// build no mask: each misses under its own key, the first also under
	// its two siblings' before it finds subset's, which the others then
	// take from the cut.
	if got, want := read(), (counters{2, 3, 3, 7}); got != want {
		t.Fatalf("after a filtered total the cache counters are %+v, want %+v", got, want)
	}
	// A write retires the subset's mask with its bitmaps.
	if err := eng.Ingest(sketch.Published{ID: 9002, Subset: subset, S: sketch.Sketch{Length: 10}}); err != nil {
		t.Fatal(err)
	}
	run(&query.UserFilter{Keep: even, Key: "even"}, 151, counters{2, 4, 3, 8})
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
		case e.waiting != 0:
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
		c.Put(key, 1, 64*len(words), 0, words)
		if e := c.m[key]; e.waiting == 0 || c.waiting != planCacheWindow {
			t.Fatalf("turn-over entry on probation %v, %d bytes on probation; want the window's %d", e.waiting != 0, c.waiting, planCacheWindow)
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

// TestProbationRingChurn: fresh Puts, re-Puts, promotions and drops in a
// random order, through a window of about 48 counts that turns over too,
// never let the probation ring hold more than 2·live + ringSlack slots,
// stale ones included, and leave it nil whenever nothing waits — after
// every operation, and after each round asks everything waiting again.
func TestProbationRingChurn(t *testing.T) {
	c := newPlanCache()
	c.window = 48 * (planCacheEntryOverhead + 8)
	rng := rand.New(rand.NewSource(29))
	fresh := 0
	recent := func() query.CacheKey { // one of the last 64 keys Put first
		return query.CacheKey{Entry: fmt.Sprintf("key-%06d", max(0, fresh-1-rng.Intn(64)))}
	}
	stale := 0 // the most stale slots the ring held at once
	checkRing := func(stage string) {
		t.Helper()
		p := &c.probation
		if len(p.ring) > 2*p.live+ringSlack || p.live == 0 && p.ring != nil {
			t.Fatalf("%s: the probation ring has %d slots, %d queued, for %d live entries", stage, len(p.ring), p.queued, p.live)
		}
		stale = max(stale, p.queued-p.live)
	}
	for round := 0; round < 8; round++ {
		// Odd rounds mostly ask again and drop: the window empties.
		puts := 4 - 3*(round%2)
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < puts || fresh == 0:
				c.Put(query.CacheKey{Entry: fmt.Sprintf("key-%06d", fresh)}, 1, 64, 1, nil)
				fresh++
			case r < puts+2:
				c.Put(recent(), 1, 64, 1, nil)
			case r < puts+4:
				c.Hits(recent(), 1, 64)
			default:
				c.mu.Lock()
				c.drop(recent())
				c.mu.Unlock()
			}
			checkRing(fmt.Sprintf("round %d, op %d", round, op))
			if op%50 == 0 {
				checkPlanCacheCharges(t, c)
			}
		}
		for k, e := range c.m {
			if e.waiting != 0 {
				c.Hits(k, 1, 64)
				checkRing(fmt.Sprintf("round %d, promoting", round))
			}
		}
		if p := &c.probation; p.live != 0 || p.ring != nil || c.waiting != 0 {
			t.Fatalf("round %d: with everything promoted the ring has %d slots for %d live entries, %d bytes waiting", round, len(p.ring), p.live, c.waiting)
		}
		checkPlanCacheCharges(t, c)
	}
	if stale < 8 || c.rejected.Load() == 0 || c.admitted.Load() == 0 {
		t.Fatalf("at most %d stale slots at once, %d rejected, %d admitted: the churn exercised too little", stale, c.rejected.Load(), c.admitted.Load())
	}
}

// TestPlanCacheMaskAndPairKeysApart: a keep mask and a pair's bitmap are
// never served as each other — not under the same Entry with Mask told
// apart, and not across kinds under their own compact keys, a subset's key
// being a strict prefix of its pairs'.
func TestPlanCacheMaskAndPairKeysApart(t *testing.T) {
	c := newPlanCache()
	filter := "node"
	for _, b := range []bitvec.Subset{bitvec.Range(0, 1), bitvec.Range(0, 20), bitvec.MustSubset(127, 128, 300)} {
		pair := query.FractionEval{Subset: b, Value: bitvec.New(b.Len())}.Key()
		mask := query.SubsetKey(b)
		c.Put(query.CacheKey{Mask: true, Entry: mask, Filter: filter}, 1, 64, 1, []uint64{1})
		c.Put(query.CacheKey{Entry: pair, Filter: filter}, 1, 64, 2, []uint64{3})
		for _, k := range []query.CacheKey{{Entry: mask, Filter: filter}, {Mask: true, Entry: pair, Filter: filter}} {
			if _, ok := c.Get(k, 1, 64); ok {
				t.Fatalf("%v: Get serves %+v", b, k)
			}
			if _, ok := c.Hits(k, 1, 64); ok {
				t.Fatalf("%v: Hits serves %+v", b, k)
			}
		}
		if w, ok := c.Get(query.CacheKey{Mask: true, Entry: mask, Filter: filter}, 1, 64); !ok || w[0] != 1 {
			t.Fatalf("%v: the mask is served %v, %v", b, ok, w)
		}
		if hits, ok := c.Hits(query.CacheKey{Entry: pair, Filter: filter}, 1, 64); !ok || hits != 2 {
			t.Fatalf("%v: the pair's count is served %v, %d", b, ok, hits)
		}
	}
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
		c.Put(query.CacheKey{Entry: fmt.Sprint("one-shot-", i), Filter: filter}, 1, 64, 0, nil)
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
	eng.cache.window = (400+63)/64*8 + len(query.SubsetKey(subset)) + len("third") + planCacheEntryOverhead
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
				c.Put(smallKey(i), 1, 64*len(smallWords), 0, smallWords)
				latest.Store(int64(i))
				if i%16 == 0 {
					c.Put(largeKey(i), 1, 64*len(largeWords), 0, largeWords)
					c.Put(largeKey(i), 1, 64*len(largeWords), 0, largeWords)
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

// pairPlans returns the pairs (subset, value) and (b, 1) for each of the
// field's single-bit subsets b, a plan asking each as a fraction, and one
// asking the histogram over them.
func pairPlans(t *testing.T, subset bitvec.Subset, value string, field bitvec.IntField) ([]query.SubQuery, *query.Plan, *query.Plan) {
	t.Helper()
	subs := []query.SubQuery{{Subset: subset, Value: bitvec.MustFromString(value)}}
	for _, b := range query.FieldBitSubsets(field) {
		subs = append(subs, query.SubQuery{Subset: b, Value: bitvec.MustFromString("1")})
	}
	fracs, hist := query.NewPlan(), query.NewPlan()
	for _, s := range subs {
		if _, err := fracs.AddFraction(s.Subset, s.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hist.AddHistogram(subs); err != nil {
		t.Fatal(err)
	}
	return subs, fracs, hist
}

// TestFractionEntriesHoldCounts: a fraction reads a count, so a fraction
// deck leaves no evaluation bitmap holding words, cold or asked again — its
// entries keep their counts and keys, and the cache is charged those and
// the one keep mask the deck's subsets share, nothing more: all of it on
// probation after the cold deck, none after its repeat.  A histogram over
// the same pairs then finds no words to join and evaluates each pair again,
// exactly kept × pairs evaluations of H, and its bitmaps keep their words
// through the fraction asks that follow, which evaluate nothing.
func TestFractionEntriesHoldCounts(t *testing.T) {
	const users, kept = 600, 200 // ids 1 to 600, every third kept
	h := &countingSource{BitSource: planSource()}
	eng, subset, field := planEngineWith(t, h, users)
	keep := &query.UserFilter{Key: "third", Keep: func(id bitvec.UserID) bool { return id%3 == 0 }}
	subs, fracs, hist := pairPlans(t, subset, "0110", field)
	run := func(stage string, plan *query.Plan, wantEvals int64) {
		t.Helper()
		want, err := eng.Estimator().ExecutePlanOver(eng.Table(), plan, keep, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := h.evals.Load()
		got, err := eng.ExecutePlan(plan, keep)
		if err != nil {
			t.Fatal(err)
		}
		if evals := h.evals.Load() - before; evals != wantEvals {
			t.Fatalf("%s: %d evaluations of H, want %d", stage, evals, wantEvals)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached %+v, uncached %+v", stage, got, want)
		}
		checkPlanCacheCharges(t, eng.cache)
	}
	c := eng.cache
	counts := func(stage string, onProbation bool) {
		t.Helper()
		want := 8 * ((users + 63) / 64) // the mask the four subsets share
		for k, e := range c.m {
			if !k.Mask && e.words != nil {
				t.Fatalf("%s: the bitmap of %q holds %d words", stage, k.Entry, len(e.words))
			}
			want += keyCost(k)
		}
		wantProbation := 0
		if onProbation {
			wantProbation = want
		}
		if bytes, entries, probation := c.size(); bytes != want || entries != 2*len(subs) || probation != wantProbation {
			t.Fatalf("%s: the cache charges %d bytes for %d entries, %d on probation; want %d for %d, %d on probation: keys and one mask",
				stage, bytes, entries, probation, want, 2*len(subs), wantProbation)
		}
	}
	pairs := int64(len(subs))
	run("cold fractions", fracs, kept*pairs)
	counts("after the cold deck", true)
	run("warm fractions", fracs, 0)
	counts("after the deck's repeat", false)
	run("histogram after the fractions", hist, kept*pairs)
	for i := 0; i < 2; i++ {
		run("fractions after the histogram", fracs, 0)
	}
	for _, s := range subs {
		e := c.m[query.CacheKey{Entry: query.FractionEval{Subset: s.Subset, Value: s.Value}.Key(), Filter: keep.Key}]
		if len(e.words) != (kept+63)/64 {
			t.Fatalf("the histogram's bitmap of %v holds %d words; want %d", s.Subset, len(e.words), (kept+63)/64)
		}
	}
	run("warm histogram", hist, 0)
}

// TestOneShotFractionsHoldNoWords: 300 fractions each asked once, under
// one keyed filter, leave 300 counts on probation and no words: the cache
// is charged exactly their keys and the one keep mask, the window exactly
// their keys — the mask, fetched again by every fraction after the first,
// was promoted by the second — and the engine_plan_cache_probation_bytes
// gauge reads the same.  A histogram over two of those pairs afterwards
// evaluates each of them again, exactly kept × pairs evaluations of H.
func TestOneShotFractionsHoldNoWords(t *testing.T) {
	const users, kept, asks = 600, 200, 300 // ids 1 to 600, every third kept
	h := &countingSource{BitSource: planSource()}
	eng, err := New(h, sketch.MustParams(0.3, 10))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.NewSketcher(h, eng.Params())
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 10)
	rng := stats.NewRNG(19)
	for id := 1; id <= users; id++ {
		pubs, err := sk.SketchAll(rng, bitvec.Profile{ID: bitvec.UserID(id), Data: bitvec.FromUint(uint64(id)%1024, 10)}, []bitvec.Subset{subset})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(pubs); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	eng.SetMetrics(reg)
	keep := &query.UserFilter{Key: "third", Keep: func(id bitvec.UserID) bool { return id%3 == 0 }}
	before := h.evals.Load()
	for v := uint64(0); v < asks; v++ {
		plan := query.NewPlan()
		if _, err := plan.AddFraction(subset, bitvec.FromUint(v, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecutePlan(plan, keep); err != nil {
			t.Fatal(err)
		}
	}
	if evals := h.evals.Load() - before; evals != kept*asks {
		t.Fatalf("%d one-shot fractions made %d evaluations of H, want %d", asks, evals, kept*asks)
	}
	c := eng.cache
	want, wantProbation := 8*((users+63)/64), 0 // the one keep mask's words
	for k, e := range c.m {
		want += keyCost(k)
		if k.Mask {
			continue
		}
		if e.words != nil || e.waiting == 0 {
			t.Fatalf("the one-shot fraction %q holds %d words, on probation %v; want none, on probation", k.Entry, len(e.words), e.waiting != 0)
		}
		wantProbation += keyCost(k)
	}
	if bytes, entries, probation := c.size(); bytes != want || entries != asks+1 || probation != wantProbation {
		t.Fatalf("the cache charges %d bytes for %d entries, %d on probation; want %d for %d, %d on probation: the fractions' keys", bytes, entries, probation, want, asks+1, wantProbation)
	}
	checkPlanCacheCharges(t, c)
	var text strings.Builder
	if err := reg.RenderText(&text); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(text.String())
	if err != nil {
		t.Fatal(err)
	}
	var gauge *obs.Family
	for _, f := range fams {
		if f.Name == "engine_plan_cache_probation_bytes" {
			gauge = f
		}
	}
	if gauge == nil || len(gauge.Samples) != 1 || gauge.Samples[0].Value != float64(wantProbation) {
		t.Fatalf("engine_plan_cache_probation_bytes reads %+v, want one sample of %d", gauge, wantProbation)
	}
	hist := query.NewPlan()
	if _, err := hist.AddHistogram([]query.SubQuery{
		{Subset: subset, Value: bitvec.FromUint(7, 10)},
		{Subset: subset, Value: bitvec.FromUint(200, 10)},
	}); err != nil {
		t.Fatal(err)
	}
	before = h.evals.Load()
	if _, err := eng.ExecutePlan(hist, keep); err != nil {
		t.Fatal(err)
	}
	if evals := h.evals.Load() - before; evals != 2*kept {
		t.Fatalf("a histogram over two one-shot pairs made %d evaluations of H, want %d", evals, 2*kept)
	}
}

// TestPlanCacheCountsAndJoinsConcurrently: fraction and histogram
// executions over the same pairs run at once, each round under a filter key
// of its own (one predicate), so its entries go through every change a
// count and a join make — Put as a count and with words, a join missing on
// a count-only entry and Putting its recomputed bitmap over it, a count hit
// on the join's bitmap — while the other kind reads them.  Every answer is the
// uncached executor's, and afterwards the books balance.  Run it under
// -race.
func TestPlanCacheCountsAndJoinsConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	eng, subset, field := planEngine(t, 2500)
	third := func(id bitvec.UserID) bool { return id%3 == 0 }
	_, fracs, hist := pairPlans(t, subset, "1010", field)
	plans := []*query.Plan{fracs, hist}
	wants := make([]*query.Results, len(plans))
	for i, plan := range plans {
		var err error
		if wants[i], err = eng.Estimator().ExecutePlanOver(eng.Table(), plan, &query.UserFilter{Keep: third}, nil); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				keep := &query.UserFilter{Key: fmt.Sprint("round-", r), Keep: third}
				for k := 0; k < 3; k++ {
					i := (g + r + k) % len(plans)
					got, err := eng.ExecutePlan(plans[i], keep)
					if err == nil && !reflect.DeepEqual(got, wants[i]) {
						err = fmt.Errorf("goroutine %d, round %d, plan %d: cached %+v, uncached %+v", g, r, i, got, wants[i])
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkPlanCacheCharges(t, eng.cache)
}

// TestPlanCacheCountOnlyChargeMatchesHeap: a fraction's entry, Put as its
// count without words, is charged its key and planCacheEntryOverhead, and
// that is what it holds: 20 000 of them, each asked again and so in the
// main budget, under a fleet node's 32-byte filter key, are charged within
// 25 % of the HeapAlloc they add.
func TestPlanCacheCountOnlyChargeMatchesHeap(t *testing.T) { checkCountOnlyCharge(t, true) }

// TestPlanCacheCountOnlyChargeMatchesHeapOnProbation is the same for
// counts asked once, query-scan's state: each waits on probation, in a
// window raised to hold all 20 000, and holds its probation slot besides.
func TestPlanCacheCountOnlyChargeMatchesHeapOnProbation(t *testing.T) {
	checkCountOnlyCharge(t, false)
}

// checkCountOnlyCharge Puts 20 000 count-only entries, asking each again
// if asked is set, and compares what they are charged with the heap they
// add.
func checkCountOnlyCharge(t *testing.T, asked bool) {
	const entries = 20_000
	subset := bitvec.Range(0, 16)
	filter := string(bytes.Repeat([]byte{0xa5}, 32))
	c := newPlanCache()
	c.window = planCacheBudget
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < entries; i++ {
		key := query.CacheKey{Entry: query.FractionEval{Subset: subset, Value: bitvec.FromUint(uint64(i), 16)}.Key(), Filter: filter}
		c.Put(key, 1, 64, uint64(bits.OnesCount64(uint64(i))), nil)
		if !asked {
			continue
		}
		if hits, ok := c.Hits(key, 1, 64); !ok || hits != uint64(bits.OnesCount64(uint64(i))) {
			t.Fatalf("entry %d: count hit %v, %d hits", i, ok, hits)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	charged, _, probation := c.size()
	// Asked once, all but the doorkeeper's false positives wait.
	if asked && probation != 0 || !asked && 50*probation < 49*charged {
		t.Fatalf("%d B of %d charged on probation, want none asked again, all but 2 %% asked once", probation, charged)
	}
	measured := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if diff := int64(charged) - measured; 4*diff > measured || -4*diff > measured {
		t.Fatalf("%d count-only entries are charged %d B (%d B each) and hold %d B of heap (%d B each): not within 25 %%",
			entries, charged, charged/entries, measured, measured/entries)
	}
	t.Logf("%d B charged, %d B of heap an entry", charged/entries, measured/entries)
	runtime.KeepAlive(c)
}
