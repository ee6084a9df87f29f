package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/query"
)

// planCacheBudget bounds the bitmap cache in bytes — keys, bitmap words
// and planCacheEntryOverhead per entry, the probation window's entries
// included; past it, entries are evicted down to about half so a
// pathological query mix cannot grow memory without bound.  An evaluation
// bitmap is one bit per record its filter keeps, so the budget is some
// 24 000 unfiltered entries over 10k-record subsets, 14 700 at the fleet
// benchmark's ≈ 16.7k records a node owns of its 33k per subset (where the
// cap of 4096 entries this replaces let 17 MB in, and bitmaps over the
// whole view held 7 700) and 260 over a million-record subset (where that
// cap let 512 MB in).
//
// planCacheWindow is the probation window: what the entries computed for
// the first time may hold between them while they wait to be asked for
// again.  It must outlast the gap between a query and its repeat — a
// dashboard's deck, an interval's prefixes asked by the next interval —
// and every byte of it is held for questions nobody asks twice.  A
// fraction's entry is its count, charged its compact key (4–6 B over a
// 10-bit field's prefixes) and planCacheEntryOverhead, ≈ 212–214 B under a
// fleet node's 32-byte filter key, so 256 KiB holds a node's last ≈
// 1225–1240 first-seen fractions, ≈ 11× as many as its ≈ 2.35 kB bitmaps:
// a node asked fewer new questions than that holds their counts, and one
// asked more fills the 256 KiB with the latest.  A join's bitmap and a keep
// mask wait there with their words.
//
// planCacheEntryOverhead is what an entry holds beside its key's bytes and
// its words: its map slot, 96 B (a 40-byte CacheKey, the Entry and Filter
// headers among them, and a 56-byte planCacheEntry) and the map's room
// around it, and on probation a 48-byte probationSlot, a ring of them
// holding up to half again its live slots — 20 000 count-only entries hold
// ≈ 184 B each of heap in the main budget and ≈ 250 B on probation, 6-byte
// Entry strings included, where each is charged 214 B
// (TestPlanCacheCountOnlyChargeMatchesHeap).  A filter's key is charged to
// each entry under it, though its entries share its string.
//
// The doorkeeper remembers the keys Put since it was last cleared in a
// Bloom filter of one bit per KiB of budget (32 Ki bits, 4 KiB) probed
// doorkeeperProbes times, cleared once it holds doorkeeperKeys keys:
// half a bit set per probe, a false "seen" rate of (1 − e^−½)⁴ ≈ 2.4 % at
// its fullest.
const (
	planCacheBudget        = 32 << 20
	planCacheWindow        = planCacheBudget / 128
	planCacheEntryOverhead = 176

	doorkeeperBits   = planCacheBudget / 1024
	doorkeeperProbes = 4
	doorkeeperKeys   = doorkeeperBits / (2 * doorkeeperProbes)
)

// planCache is the engine's query.BitmapCache: per-(subset, value, filter
// key) evaluation bitmaps — a bit per record the filter keeps, so T tenants'
// entries for one pair hold one view's bits between them — and
// per-(subset, filter key) keep masks, a bit per record of the view,
// versioned by the table's per-subset write generation.
// An ingest into a subset bumps the generation (see Table.View), so
// every cached bitmap for that subset goes stale implicitly — the epoch
// check at Get and Hits is the invalidation.  Within a generation, a
// repeated or overlapping evaluation under the same filter (interval
// prefixes share entries across queries) reduces to a cached count or a
// join of cached bitmaps.
//
// An evaluation bitmap keeps its popcount beside its words.  A fraction
// reads the count alone, so its entry is Put as the count, without words,
// from its first Put on: a fraction deck holds keys and counts, not
// bitmaps.  A join misses on a count-only entry, computes the bitmap again
// and Puts it with its words.  Keep masks are Put with their words.
//
// Both kinds of entry are held under one rule: only what is asked for
// again stays.  A Put of a key the doorkeeper has not seen waits in the
// FIFO probation window, where a hit — a count or a bitmap — promotes it to
// the main budget and a newer first-seen entry the window has no room for
// drops it; a Put of a key the doorkeeper has seen — asked for before,
// dropped or stale since — enters the main budget at once.  The cache
// decides what is kept, never what is counted: an answer is the same
// whatever it admits.
//
// An entry is charged its key and planCacheEntryOverhead, and its words —
// none for a fraction's count — once however many entries hold the
// same array — the executor caches one keep mask under every subset of a
// cut that holds the same users — in each budget the entries holding the
// array are under: the words are refunded when the last of them leaves.
type planCache struct {
	mu sync.RWMutex
	m  map[query.CacheKey]planCacheEntry
	// bytes is what the entries of m cost against planCacheBudget, those
	// on probation included; waiting is what the latter cost against
	// planCacheWindow.
	bytes, waiting int
	// probation queues the keys of the entries on probation, oldest first;
	// window is planCacheWindow (a test shrinks it).
	probation probation
	window    int
	// holders counts the entries holding each shared words array, by its
	// first word, and those of them on probation.
	holders map[*uint64]holders
	// seen is the doorkeeper, allocated at the first Put.
	seen *doorkeeper
	// hits/misses count Get and Hits outcomes for evaluation bitmaps (the
	// engine_plan_cache_* series), maskHits/maskMisses Get outcomes for
	// keep masks (engine_keep_mask_*), evals the evaluations of H the
	// misses cost (engine_plan_evaluations_total), admitted the entries
	// that entered the main budget — promoted or let in by the doorkeeper —
	// and rejected those the window dropped before anyone asked for them
	// again.  They are always counted — one uncontended atomic add next to
	// a map lookup or a subset scan — and only exposed when a registry is
	// attached.
	hits, misses         atomic.Uint64
	maskHits, maskMisses atomic.Uint64
	evals                atomic.Uint64
	admitted, rejected   atomic.Uint64
}

// holders counts the entries holding one shared words array: all of them,
// and those on probation.
type holders struct{ all, waiting int }

// planCacheEntry pairs a bitmap with the generation and record count it
// was computed at, and with hits, how many bits it sets.  words is nil for
// a fraction's count.  waiting is the sequence number of its probation
// slot, 0 once it is in the main budget.
type planCacheEntry struct {
	gen     uint64
	records int
	words   []uint64
	hits    uint64
	waiting uint64
}

// newPlanCache returns an empty cache.
func newPlanCache() *planCache {
	return &planCache{m: make(map[query.CacheKey]planCacheEntry), holders: make(map[*uint64]holders), window: planCacheWindow}
}

// lookup returns the entry under key if it is for exactly this generation
// and record count.
func (c *planCache) lookup(key query.CacheKey, gen uint64, records int) (planCacheEntry, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	return e, ok && e.gen == gen && e.records == records
}

// Get implements query.BitmapCache: a join's or a keep mask's lookup,
// which misses on a fraction's count.  A hit promotes an entry still on
// probation.
func (c *planCache) Get(key query.CacheKey, gen uint64, records int) ([]uint64, bool) {
	hits, misses := &c.hits, &c.misses
	if key.Mask {
		hits, misses = &c.maskHits, &c.maskMisses
	}
	e, ok := c.lookup(key, gen, records)
	if !ok || e.words == nil {
		misses.Add(1)
		return nil, false
	}
	if e.waiting != 0 {
		c.promote(key, gen, records)
	}
	hits.Add(1)
	return e.words, true
}

// Hits implements query.BitmapCache: a fraction's lookup.  A hit promotes
// an entry still on probation.
func (c *planCache) Hits(key query.CacheKey, gen uint64, records int) (uint64, bool) {
	e, ok := c.lookup(key, gen, records)
	if !ok {
		c.misses.Add(1)
		return 0, false
	}
	if e.waiting != 0 {
		c.promote(key, gen, records)
	}
	c.hits.Add(1)
	return e.hits, true
}

// promote moves the entry under key at (gen, records) out of probation
// into the main budget, if it is still there and waiting: a Put may have
// replaced it, or a hit or the window taken it out, between Get's or Hits'
// lock and this one.
func (c *planCache) promote(key query.CacheKey, gen uint64, records int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || e.gen != gen || e.records != records || e.waiting == 0 {
		return
	}
	e.waiting = 0
	c.m[key] = e
	c.unwait(key, e)
	c.admitted.Add(1)
}

// size returns what the entries cost against planCacheBudget, how many
// there are and what those on probation cost (the engine_plan_cache_bytes,
// _entries and _probation_bytes gauges).
func (c *planCache) size() (bytes, entries, probation int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes, len(c.m), c.waiting
}

// keyCost is what every entry under key counts against a budget, its
// words aside.
func keyCost(key query.CacheKey) int {
	return len(key.Entry) + len(key.Filter) + planCacheEntryOverhead
}

// shares reports whether an entry under key holds words that other
// entries may hold too: a keep mask, which the executor caches under every
// subset of a cut that holds the same users.  A bitmap is never shared.
func shares(key query.CacheKey, words []uint64) bool { return key.Mask && len(words) > 0 }

// adds is what an entry under key holding words would add to the main
// budget (waiting false) or the window: its key, and its words unless an
// entry under that budget holds the same array.
func (c *planCache) adds(key query.CacheKey, words []uint64, waiting bool) int {
	if shares(key, words) {
		h := c.holders[&words[0]]
		if waiting && h.waiting > 0 || !waiting && h.all > 0 {
			return keyCost(key)
		}
	}
	return keyCost(key) + 8*len(words)
}

// count moves the holder counts of a shared array by all and waiting.
func (c *planCache) count(key query.CacheKey, words []uint64, all, waiting int) {
	if !shares(key, words) {
		return
	}
	h := c.holders[&words[0]]
	h.all, h.waiting = h.all+all, h.waiting+waiting
	if h.all == 0 {
		delete(c.holders, &words[0])
	} else {
		c.holders[&words[0]] = h
	}
}

// hold charges entry e under key to the budgets it is under.
func (c *planCache) hold(key query.CacheKey, e planCacheEntry) {
	c.bytes += c.adds(key, e.words, false)
	waiting := 0
	if e.waiting != 0 {
		c.waiting += c.adds(key, e.words, true)
		waiting = 1
	}
	c.count(key, e.words, 1, waiting)
}

// unwait takes entry e under key out of the window, refunding what it
// costs there; its slot is stale already, m holding no entry under key
// with e's sequence number.
func (c *planCache) unwait(key query.CacheKey, e planCacheEntry) {
	c.count(key, e.words, 0, -1)
	c.waiting -= c.adds(key, e.words, true)
	p := &c.probation
	if p.live--; p.live == 0 || len(p.ring) > 2*p.live+ringSlack {
		c.compact()
	}
}

// Put implements query.BitmapCache.  The stored words are shared and must
// not be mutated afterwards (the executor never does); hits is kept beside
// them for the count hits to come.  An older entry
// under key goes first, whatever becomes of the new one.  A key the
// doorkeeper has seen enters the main budget; any other goes on
// probation, dropping the oldest entries there until the window has room,
// and is not held at all if it is larger than the window.  A bitmap the
// whole budget could not hold is not cached.
func (c *planCache) Put(key query.CacheKey, gen uint64, records int, hits uint64, words []uint64) {
	e := planCacheEntry{gen: gen, records: records, words: words, hits: hits}
	cost := keyCost(key) + 8*len(words) // what it costs alone
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop(key)
	if cost > planCacheBudget {
		return
	}
	if c.seen == nil {
		c.seen = new(doorkeeper)
	}
	waits := false
	switch {
	case c.seen.saw(key):
		c.admitted.Add(1)
	case cost > c.window:
		return
	default:
		for c.waiting+c.adds(key, words, true) > c.window {
			c.drop(c.oldest())
			c.rejected.Add(1)
		}
		waits = true
	}
	if c.bytes+c.adds(key, words, false) > planCacheBudget {
		// Down to half the budget, or to what leaves room for a bitmap
		// larger than that.
		room := min(planCacheBudget/2, planCacheBudget-cost)
		for k := range c.m {
			if c.bytes <= room {
				break
			}
			c.drop(k)
		}
	}
	if waits {
		// Queued last: a compaction on the way would take a slot whose
		// entry m does not hold yet for a stale one.
		e.waiting = c.queue(key)
	}
	c.m[key] = e
	c.hold(key, e)
}

// drop removes the entry under key, if there is one, from the cache and
// from probation.
func (c *planCache) drop(key query.CacheKey) {
	e, ok := c.m[key]
	if !ok {
		return
	}
	delete(c.m, key)
	if e.waiting != 0 {
		c.unwait(key, e)
	}
	c.count(key, e.words, -1, 0)
	c.bytes -= c.adds(key, e.words, false)
}

// probation is the FIFO of the keys on probation: a ring of slots, oldest
// first from ring[head], each a key and the sequence number its entry was
// queued under.  A slot goes stale, not away, when its entry is promoted,
// dropped or Put again — the entry under its key no longer waits under its
// number — and a stale slot is skipped when it reaches the front.  The ring
// holds at most 2·live + ringSlack slots, stale ones included, and none at
// all when nothing waits.  compact, which moves the live slots into a ring
// half as large again, runs when a slot is queued onto a full ring and when
// an entry leaving probation takes live below that bound: each time a
// quarter of the live entries or more have been queued or have left since
// the last, so a slot costs O(1) amortized.
type probation struct {
	ring         []probationSlot
	head, queued int    // the front slot's index, and the slots queued from it, stale ones included
	live         int    // the entries on probation, each one slot's
	seq          uint64 // the last sequence number handed out
}

// probationSlot is one key on probation and the sequence number it was
// queued under.
type probationSlot struct {
	key query.CacheKey
	seq uint64
}

// ringSlack is the room a compacted ring has beyond half again its live
// slots, and what the bound 2·live allows it beside them.
const ringSlack = 8

// queue puts key at the back of the probation FIFO, live, and returns the
// sequence number its entry waits under.
func (c *planCache) queue(key query.CacheKey) uint64 {
	p := &c.probation
	if p.live++; p.queued == len(p.ring) {
		c.compact()
	}
	p.seq++
	p.ring[(p.head+p.queued)%len(p.ring)] = probationSlot{key: key, seq: p.seq}
	p.queued++
	return p.seq
}

// oldest takes the front slots off the FIFO up to the first live one, and
// returns its key; it must be called only while an entry is on probation.
func (c *planCache) oldest() query.CacheKey {
	p := &c.probation
	for {
		s := p.ring[p.head]
		p.ring[p.head] = probationSlot{} // let the key's strings go
		p.head, p.queued = (p.head+1)%len(p.ring), p.queued-1
		if c.queuedAs(s) {
			return s.key
		}
	}
}

// queuedAs reports whether slot s is live: the entry under its key waits
// under its sequence number.
func (c *planCache) queuedAs(s probationSlot) bool {
	e, ok := c.m[s.key]
	return ok && e.waiting == s.seq
}

// compact moves the live slots, oldest first, into a new ring with room for
// half as many again and ringSlack more, and lets the stale ones and the old
// array go; with nothing on probation it lets the ring go.
func (c *planCache) compact() {
	p := &c.probation
	var ring []probationSlot
	if p.live > 0 {
		ring = make([]probationSlot, 0, p.live+p.live/2+ringSlack)
		for i := 0; i < p.queued; i++ {
			if s := p.ring[(p.head+i)%len(p.ring)]; c.queuedAs(s) {
				ring = append(ring, s)
			}
		}
	}
	p.ring, p.head, p.queued = ring[:cap(ring)], 0, len(ring)
}

// Evaluated implements query.BitmapCache.
func (c *planCache) Evaluated(n uint64) { c.evals.Add(n) }

// doorkeeper answers the admission question "has this key been Put
// before?" — TinyLFU's doorkeeper (Einziger, Friedman and Manes, "TinyLFU:
// A Highly Efficient Cache Admission Policy", ACM ToS 2017).  A key's
// probes come from a fixed hash, not a seeded one, so what is admitted,
// and every count that follows from it, repeats from run to run.
type doorkeeper struct {
	bits [doorkeeperBits / 64]uint64
	keys int
}

// saw reports whether key was recorded since the last clear, and records
// it if not — clearing first if the filter holds doorkeeperKeys keys.
func (d *doorkeeper) saw(key query.CacheKey) bool {
	h := keyHash(key)
	var probes [doorkeeperProbes]uint64
	seen := true
	for i := range probes {
		probes[i] = h >> (16 * i) % doorkeeperBits
		seen = seen && d.bits[probes[i]/64]&(1<<(probes[i]%64)) != 0
	}
	if seen {
		return true
	}
	if d.keys == doorkeeperKeys {
		*d = doorkeeper{}
	}
	for _, b := range probes {
		d.bits[b/64] |= 1 << (b % 64)
	}
	d.keys++
	return false
}

// keyHash is FNV-1a over a key's Entry, a separator that tells the two
// kinds of entry apart, and its Filter, finished with a multiply-xorshift
// so that each 16-bit probe depends on every byte (FNV's low bits depend
// only on the state's low bits).
func keyHash(key query.CacheKey) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(key.Entry); i++ {
		h = (h ^ uint64(key.Entry[i])) * prime
	}
	var sep uint64
	if key.Mask {
		sep = 1
	}
	h = (h ^ sep) * prime
	for i := 0; i < len(key.Filter); i++ {
		h = (h ^ uint64(key.Filter[i])) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// ExecutePlan runs an entire compiled query plan in one parallel sharded
// pass over the engine's table, evaluating every plan entry against each
// record's once-encoded PRF tuple parts and serving repeated evaluations
// from the generation-versioned bitmap cache.  keep restricts the counters
// to records whose user passes the filter (nil: all records) — the cluster
// node path — and the evaluations with them: H runs only on the records
// the filter's keep mask keeps, and the bitmaps are cached under the
// filter's key, beside the mask the same cache holds.
func (e *Engine) ExecutePlan(p *query.Plan, keep *query.UserFilter) (*query.Results, error) {
	if e.m != nil {
		defer e.m.planExec.ObserveSince(time.Now())
	}
	return e.est.ExecutePlanOver(e.table, p, keep, e.cache)
}

// ExecutePlanCtx is ExecutePlan bounded by a context: execution is
// abandoned with ctx.Err() at the next work-unit boundary once the context
// ends.  The cluster node runs plan queries under the router's end-to-end
// deadline budget through this.
func (e *Engine) ExecutePlanCtx(ctx context.Context, p *query.Plan, keep *query.UserFilter) (*query.Results, error) {
	if e.m != nil {
		defer e.m.planExec.ObserveSince(time.Now())
	}
	return e.est.ExecutePlanOverCtx(ctx, e.table, p, keep, e.cache)
}

// engineSource is the engine's query.PartialSource: plans run through the
// cached batch executor, restricted to the records whose user passes keep
// (nil: all records).
type engineSource struct {
	e    *Engine
	keep *query.UserFilter
}

// Execute implements query.PartialSource.
func (s engineSource) Execute(p *query.Plan) (*query.Results, error) {
	return s.e.ExecutePlan(p, s.keep)
}

// TotalRecords implements query.PartialSource.
func (s engineSource) TotalRecords() (uint64, error) { return query.TotalRecordsVia(s.Execute) }
