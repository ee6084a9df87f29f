package engine

import (
	"container/list"
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
// planCacheWindow is the probation window: what the bitmaps computed for
// the first time may hold between them while they wait to be asked for
// again.  It must outlast the gap between a query and its repeat — a
// dashboard's deck, an interval's prefixes asked by the next interval —
// and every byte of it is held for questions nobody asks twice.  At 256
// KiB a fleet node holds its last ≈ 110 first-seen bitmaps of ≈ 2.35 kB,
// enough for `query-cached`'s deck of 110 bitmaps and 10 masks a node to
// be promoted during its warm-up; each further 128 KiB costs `query-scan`
// ≈ 0.45 B a record of heap (4.44 / 5.32 / 5.78 / 6.21 B at 0 / 256 /
// 384 / 512 KiB).
//
// The doorkeeper remembers the keys Put since it was last cleared in a
// Bloom filter of one bit per KiB of budget (32 Ki bits, 4 KiB) probed
// doorkeeperProbes times, cleared once it holds doorkeeperKeys keys:
// half a bit set per probe, a false "seen" rate of (1 − e^−½)⁴ ≈ 2.4 % at
// its fullest.
const (
	planCacheBudget        = 32 << 20
	planCacheWindow        = planCacheBudget / 128
	planCacheEntryOverhead = 128 // map slot, entry and key header, rounded up

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
// check at Get is the invalidation.  Within a generation, a repeated or
// overlapping evaluation under the same filter (interval prefixes share
// entries across queries) reduces to a popcount of the cached bitmap.
//
// Both kinds of entry are held under one rule: only what is asked for
// again stays.  A Put of a key the doorkeeper has not seen waits in the
// FIFO probation window, where a Get that hits it promotes it to the main
// budget and a newer first-seen entry the window has no room for drops
// it; a Put of a key the doorkeeper has seen — asked for before, dropped
// or stale since — enters the main budget at once.  The cache decides
// what is kept, never what is counted: an answer is the same whatever it
// admits.
type planCache struct {
	mu sync.RWMutex
	m  map[query.CacheKey]planCacheEntry
	// bytes is what the entries of m cost against planCacheBudget, those
	// on probation included; waiting is what the latter cost against
	// planCacheWindow.
	bytes, waiting int
	// probation holds the keys of the entries on probation, oldest first;
	// window is planCacheWindow (a test shrinks it).
	probation list.List
	window    int
	// seen is the doorkeeper, allocated at the first Put.
	seen *doorkeeper
	// hits/misses count Get outcomes for evaluation bitmaps (the
	// engine_plan_cache_* series), maskHits/maskMisses for keep masks
	// (engine_keep_mask_*), evals the evaluations of H the misses cost
	// (engine_plan_evaluations_total), admitted the entries that entered
	// the main budget — promoted or let in by the doorkeeper — and rejected
	// those the window dropped before anyone asked for them again.  They
	// are always counted — one uncontended atomic add next to a map lookup
	// or a subset scan — and only exposed when a registry is attached.
	hits, misses         atomic.Uint64
	maskHits, maskMisses atomic.Uint64
	evals                atomic.Uint64
	admitted, rejected   atomic.Uint64
}

// planCacheEntry pairs a bitmap with the generation and record count it
// was computed at.  waiting is its element of the probation FIFO, nil
// once it is in the main budget.
type planCacheEntry struct {
	gen     uint64
	records int
	words   []uint64
	waiting *list.Element
}

// newPlanCache returns an empty cache.
func newPlanCache() *planCache {
	return &planCache{m: make(map[query.CacheKey]planCacheEntry), window: planCacheWindow}
}

// Get implements query.BitmapCache.  A hit on an entry still on probation
// promotes it.
func (c *planCache) Get(key query.CacheKey, gen uint64, records int) ([]uint64, bool) {
	hits, misses := &c.hits, &c.misses
	if key.Mask {
		hits, misses = &c.maskHits, &c.maskMisses
	}
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || e.gen != gen || e.records != records {
		misses.Add(1)
		return nil, false
	}
	if e.waiting != nil {
		c.promote(key, e.waiting)
	}
	hits.Add(1)
	return e.words, true
}

// promote moves the entry under key out of probation into the main
// budget, if it is still the one whose probation element Get read: a Put
// may have replaced it, or the window dropped it, between the two locks.
func (c *planCache) promote(key query.CacheKey, waiting *list.Element) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || e.waiting != waiting {
		return
	}
	c.probation.Remove(waiting)
	c.waiting -= e.cost(key)
	e.waiting = nil
	c.m[key] = e
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

// cost is what an entry counts against planCacheBudget.
func (e planCacheEntry) cost(key query.CacheKey) int {
	return len(key.Entry) + len(key.Filter) + 8*len(e.words) + planCacheEntryOverhead
}

// Put implements query.BitmapCache.  The stored words are shared and must
// not be mutated afterwards (the executor never does).  An older entry
// under key goes first, whatever becomes of the new one.  A key the
// doorkeeper has seen enters the main budget; any other goes on
// probation, dropping the oldest entries there until the window has room,
// and is not held at all if it is larger than the window.  A bitmap the
// whole budget could not hold is not cached.
func (c *planCache) Put(key query.CacheKey, gen uint64, records int, words []uint64) {
	e := planCacheEntry{gen: gen, records: records, words: words}
	cost := e.cost(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop(key)
	if cost > planCacheBudget {
		return
	}
	if c.seen == nil {
		c.seen = new(doorkeeper)
	}
	switch {
	case c.seen.saw(key):
		c.admitted.Add(1)
	case cost > c.window:
		return
	default:
		for c.waiting+cost > c.window {
			c.drop(c.probation.Front().Value.(query.CacheKey))
			c.rejected.Add(1)
		}
		e.waiting = c.probation.PushBack(key)
		c.waiting += cost
	}
	if c.bytes+cost > planCacheBudget {
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
	c.m[key] = e
	c.bytes += cost
}

// drop removes the entry under key, if there is one, from the cache and
// from probation.
func (c *planCache) drop(key query.CacheKey) {
	e, ok := c.m[key]
	if !ok {
		return
	}
	delete(c.m, key)
	cost := e.cost(key)
	c.bytes -= cost
	if e.waiting != nil {
		c.probation.Remove(e.waiting)
		c.waiting -= cost
	}
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
