package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/query"
)

// planCacheBudget bounds the bitmap cache in bytes — keys, bitmap words
// and planCacheEntryOverhead per entry; past it, entries are evicted down
// to about half so a pathological query mix cannot grow memory without
// bound.  An evaluation bitmap is one bit per record its filter keeps, so
// the budget is some 24 000 unfiltered entries over 10k-record subsets,
// 14 700 at the fleet benchmark's ≈ 16.7k records a node owns of its 33k
// per subset (where the cap of 4096 entries this replaces let 17 MB in, and
// bitmaps over the whole view held 7 700) and 260 over a million-record
// subset (where that cap let 512 MB in).
const (
	planCacheBudget        = 32 << 20
	planCacheEntryOverhead = 128 // map slot, entry and key header, rounded up
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
type planCache struct {
	mu sync.RWMutex
	m  map[query.CacheKey]planCacheEntry
	// bytes is what the entries of m cost against planCacheBudget.
	bytes int
	// hits/misses count Get outcomes for evaluation bitmaps (the
	// engine_plan_cache_* series), maskHits/maskMisses for keep masks
	// (engine_keep_mask_*), evals the evaluations of H the misses cost
	// (engine_plan_evaluations_total).  They are always counted — one
	// uncontended atomic add next to a map lookup or a subset scan — and
	// only exposed when a registry is attached.
	hits, misses         atomic.Uint64
	maskHits, maskMisses atomic.Uint64
	evals                atomic.Uint64
}

// planCacheEntry pairs a bitmap with the generation and record count it
// was computed at.
type planCacheEntry struct {
	gen     uint64
	records int
	words   []uint64
}

// newPlanCache returns an empty cache.
func newPlanCache() *planCache {
	return &planCache{m: make(map[query.CacheKey]planCacheEntry)}
}

// Get implements query.BitmapCache.
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
	hits.Add(1)
	return e.words, true
}

// size returns what the entries cost against planCacheBudget and how many
// there are (the engine_plan_cache_bytes and _entries gauges).
func (c *planCache) size() (bytes, entries int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes, len(c.m)
}

// cost is what an entry counts against planCacheBudget.
func (e planCacheEntry) cost(key query.CacheKey) int {
	return len(key.Entry) + len(key.Filter) + 8*len(e.words) + planCacheEntryOverhead
}

// Put implements query.BitmapCache.  The stored words are shared and must
// not be mutated afterwards (the executor never does).  A bitmap the whole
// budget could not hold is not cached.
func (c *planCache) Put(key query.CacheKey, gen uint64, records int, words []uint64) {
	e := planCacheEntry{gen: gen, records: records, words: words}
	cost := e.cost(key)
	if cost > planCacheBudget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[key]; ok {
		delete(c.m, key)
		c.bytes -= old.cost(key)
	}
	if c.bytes+cost > planCacheBudget {
		// Down to half the budget, or to what leaves room for a bitmap
		// larger than that.
		room := min(planCacheBudget/2, planCacheBudget-cost)
		for k, old := range c.m {
			if c.bytes <= room {
				break
			}
			delete(c.m, k)
			c.bytes -= old.cost(k)
		}
	}
	c.m[key] = e
	c.bytes += cost
}

// Evaluated implements query.BitmapCache.
func (c *planCache) Evaluated(n uint64) { c.evals.Add(n) }

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
