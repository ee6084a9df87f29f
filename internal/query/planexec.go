package query

import (
	"context"
	"math/bits"
	"sync"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
)

// CacheKey names one cached bitmap over a subset's sorted view: an
// evaluation bitmap (Entry is FractionEval.Key, Filter empty) or the keep
// mask of a filter (Entry is the subset's key, Filter is UserFilter.Key).
// A mask is cached only under a non-empty filter key, so the two kinds
// cannot collide.
type CacheKey struct {
	Entry  string
	Filter string
}

// BitmapCache caches evaluation bitmaps and keep masks across plan
// executions.  A bitmap is one bit per record of a subset's sorted view;
// it is valid only for the table generation it was computed at,
// so implementations key entries by generation and a write to the subset
// (which bumps the generation) invalidates them implicitly.  The engine
// provides the durable implementation; a nil cache simply recomputes.
type BitmapCache interface {
	// Get returns the cached bitmap under key, if one exists for exactly
	// this generation and record count.
	Get(key CacheKey, gen uint64, records int) ([]uint64, bool)
	// Put stores a computed bitmap.  The words become shared and immutable.
	Put(key CacheKey, gen uint64, records int, words []uint64)
}

// ExecutePlanOver runs an entire plan against one table in a single
// batched pass per touched subset: the record loop is sharded across
// GOMAXPROCS workers, each record's shared PRF message parts (tuple header,
// user id, sketch key) are encoded once and reused across every fraction
// evaluation of the subset, and the per-entry results are bitmaps — one
// bit per snapshot record — so an attached cache reduces repeated and
// overlapping evaluations to popcounts.  The counters produced are
// bit-identical to evaluating H once per record and entry in a serial
// loop (FuzzPlanEquivalence asserts this against the scalar oracle in
// oracle_test.go): evaluation H is deterministic per record, so batching,
// sharding and caching cannot change any count.
//
// keep restricts every counter to records whose user passes the filter:
// bitmaps are computed over the full snapshot (making them cacheable
// regardless of filter) and the filter is applied at counting time, as a
// keep mask that is itself cached when the filter has a Key.
func (e *Estimator) ExecutePlanOver(tab *sketch.Table, p *Plan, keep *UserFilter, cache BitmapCache) (*Results, error) {
	return e.ExecutePlanOverCtx(context.Background(), tab, p, keep, cache)
}

// ExecutePlanOverCtx is ExecutePlanOver bounded by a context: the executor
// checks ctx at every work-unit boundary (between subset groups, before
// each histogram) and abandons the plan with ctx.Err() once it is done.
// A distributed node runs queries under the router's end-to-end deadline
// budget through this — work the router has stopped waiting for should
// stop burning cores.  The granularity is a whole subset group, which
// keeps the hot record loop check-free; groups are milliseconds even at
// the largest benchmarked tables, so cancellation latency stays small.
func (e *Estimator) ExecutePlanOverCtx(ctx context.Context, tab *sketch.Table, p *Plan, keep *UserFilter, cache BitmapCache) (*Results, error) {
	res := newResults(p)

	// Group fraction entries by subset so each subset's snapshot is walked
	// once for all its pending evaluations.
	type group struct {
		subset  bitvec.Subset
		entries []int
	}
	var groups []group
	byKey := make(map[string]int)
	for i, f := range p.fractions {
		k := f.Subset.Key()
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			groups = append(groups, group{subset: f.Subset})
			byKey[k] = gi
		}
		groups[gi].entries = append(groups[gi].entries, i)
	}

	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		snap, gen := tab.View(g.subset)
		n := snap.Len()
		bitmaps := make([][]uint64, len(g.entries))
		var missJ []int
		for j, ei := range g.entries {
			if cache != nil {
				if w, ok := cache.Get(CacheKey{Entry: p.fractions[ei].Key()}, gen, n); ok {
					bitmaps[j] = w
					continue
				}
			}
			missJ = append(missJ, j)
		}
		if len(missJ) > 0 && n > 0 {
			missed := make([]FractionEval, len(missJ))
			for c, j := range missJ {
				missed[c] = p.fractions[g.entries[j]]
			}
			computed := evalBitmaps(e.h, snap, missed)
			for c, j := range missJ {
				bitmaps[j] = computed[c]
				if cache != nil {
					cache.Put(CacheKey{Entry: p.fractions[g.entries[j]].Key()}, gen, n, computed[c])
				}
			}
		}

		// Counting: an unfiltered query popcounts the bitmap directly; a
		// filtered one popcounts against the subset's keep mask, shared by
		// every evaluation of the subset.
		if keep == nil {
			for j, ei := range g.entries {
				if n == 0 {
					res.Fractions[ei] = Partial{}
					continue
				}
				res.Fractions[ei] = Partial{Hits: popcount(bitmaps[j]), Records: uint64(n)}
			}
			continue
		}
		mask := keepMask(g.subset, snap, gen, keep, cache)
		kept := popcount(mask)
		for j, ei := range g.entries {
			if kept == 0 {
				res.Fractions[ei] = Partial{}
				continue
			}
			res.Fractions[ei] = Partial{Hits: popcountAnd(bitmaps[j], mask), Records: kept}
		}
	}

	// Histograms run over a different record universe (users holding every
	// sub-query subset), already sharded internally.  Fractions were
	// computed above, so guards can fire: a histogram whose guard counted
	// records is the conjunction estimator's unused gluing fallback and is
	// skipped rather than paid for.
	for i, h := range p.hists {
		if h.Skipped(res.Fractions) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Hists[i] = matchHistogram(e.h, tab, h.Subs, keep.pred())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, b := range p.counts {
		res.Counts[i] = SubsetRecordsOf(tab, b, keep, cache)
	}
	if p.total {
		res.Total = TotalRecordsOf(tab, keep, cache)
	}
	return res, nil
}

// evalBitmaps computes one evaluation bitmap per fraction entry over the
// view, sharding the record loop across workers on 64-record
// boundaries so no two workers touch the same output word.  Each worker
// owns one pooled kernel per entry plus shared prefix/suffix scratch, so
// a record's id and sketch parts are encoded once for all entries and
// every evaluation stays on the zero-allocation midstate-cached path.
func evalBitmaps(h prf.BitSource, records sketch.View, evals []FractionEval) [][]uint64 {
	n := records.Len()
	nw := (n + 63) / 64
	out := make([][]uint64, len(evals))
	for j := range out {
		out[j] = make([]uint64, nw)
	}
	workers := workersFor(n * len(evals))
	// Round the shard size up to a word boundary; workers then never share
	// an output word, so the bit sets need no synchronisation.
	chunk := ((n+workers-1)/workers + 63) &^ 63
	if chunk == 0 {
		chunk = 64
	}
	eval := func(lo, hi int) {
		kernels := make([]*sketch.Kernel, len(evals))
		for j, ev := range evals {
			kernels[j] = sketch.AcquireKernel(h, ev.Subset, ev.Value)
		}
		defer func() {
			for _, k := range kernels {
				k.Release()
			}
		}()
		// Word-at-a-time: each 64-record window's prefix and suffix parts
		// are encoded once into contiguous scratch, then replayed through
		// every kernel's multi-lane batch path, which packs the 64 PRF
		// messages into 8-wide SHA-256 lanes.  lo is 64-aligned (chunks are
		// word multiples), so a window maps onto exactly one output word.
		var partBuf []byte
		var offs []int
		prefixes := make([][]byte, 0, 64)
		suffixes := make([][]byte, 0, 64)
		for lo < hi {
			n := hi - lo
			if n > 64 {
				n = 64
			}
			win := records.Slice(lo, lo+n)
			partBuf, offs = partBuf[:0], offs[:0]
			for i := 0; i < n; i++ {
				offs = append(offs, len(partBuf))
				partBuf = sketch.AppendRecordPrefix(partBuf, win.ID(i))
				offs = append(offs, len(partBuf))
				partBuf = sketch.AppendRecordSuffix(partBuf, win.Sketch(i))
			}
			offs = append(offs, len(partBuf))
			prefixes, suffixes = prefixes[:0], suffixes[:0]
			for i := 0; i < n; i++ {
				prefixes = append(prefixes, partBuf[offs[2*i]:offs[2*i+1]])
				suffixes = append(suffixes, partBuf[offs[2*i+1]:offs[2*i+2]])
			}
			w := lo >> 6
			for j, k := range kernels {
				out[j][w] |= k.EvaluatePartsWord(win, prefixes, suffixes)
			}
			lo += n
		}
	}
	if workers <= 1 || chunk >= n {
		eval(0, n)
		return out
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			eval(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// keepMask returns the filter bitmap of subset b's view: bit i set iff
// record i's user passes keep.  A filter with a Key reads its mask from the
// cache and leaves a built one there, under (subset, filter key) at the
// view's generation and length: equal keys mean equal predicates, so the
// only thing that can change the mask is a write to the subset — the same
// generation bump that retires its evaluation bitmaps.
func keepMask(b bitvec.Subset, records sketch.View, gen uint64, keep *UserFilter, cache BitmapCache) []uint64 {
	n := records.Len()
	if n == 0 {
		return nil
	}
	cached := cache != nil && keep.Key != ""
	var key CacheKey
	if cached {
		key = CacheKey{Entry: b.Key(), Filter: keep.Key}
		if mask, ok := cache.Get(key, gen, n); ok {
			return mask
		}
	}
	mask := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if keep.Keep(records.ID(i)) {
			mask[i>>6] |= uint64(1) << uint(i&63)
		}
	}
	if cached {
		cache.Put(key, gen, n, mask)
	}
	return mask
}

// popcount sums the set bits of a bitmap.
func popcount(words []uint64) uint64 {
	var n uint64
	for _, w := range words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// popcountAnd sums the set bits of the intersection of two bitmaps.
func popcountAnd(a, b []uint64) uint64 {
	var n uint64
	for i := range a {
		n += uint64(bits.OnesCount64(a[i] & b[i]))
	}
	return n
}
