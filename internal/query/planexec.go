package query

import (
	"context"
	"math/bits"
	"runtime"
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

// ExecutePlanOver runs an entire plan against one table.  The execution
// reads ONE state of the table — every subset the plan touches is cut
// under one lock (see cut) — and every (subset, value) pair the plan
// mentions, a fraction entry or a histogram's sub-query alike, becomes an
// evaluation bitmap over its subset's view: the record loop is sharded
// across GOMAXPROCS workers, each record's shared PRF message parts (tuple
// header, user id, sketch key) are encoded once and reused across every
// pair of the subset, and an attached cache reduces repeated and
// overlapping evaluations to popcounts and joins.  The counters produced
// are bit-identical to evaluating H once per record and entry in a serial
// loop (FuzzPlanEquivalence asserts this against the scalar oracle in
// oracle_test.go): evaluation H is deterministic per record, so batching,
// sharding and caching cannot change any count.
//
// keep restricts every counter to records whose user passes the filter:
// bitmaps are computed over the full view (making them cacheable
// regardless of filter) and the filter is applied at counting time, as a
// keep mask that is itself cached when the filter has a Key.
func (e *Estimator) ExecutePlanOver(tab *sketch.Table, p *Plan, keep *UserFilter, cache BitmapCache) (*Results, error) {
	return e.ExecutePlanOverCtx(context.Background(), tab, p, keep, cache)
}

// ExecutePlanOverCtx is ExecutePlanOver bounded by a context: the executor
// checks ctx at every work-unit boundary (before each subset's scan) and
// abandons the plan with ctx.Err() once it is done.  A distributed node
// runs queries under the router's end-to-end deadline budget through this
// — work the router has stopped waiting for should stop burning cores.
// The granularity is a whole subset, which keeps the hot record loop
// check-free; a scan is milliseconds even at the largest benchmarked
// tables, so cancellation latency stays small.
func (e *Estimator) ExecutePlanOverCtx(ctx context.Context, tab *sketch.Table, p *Plan, keep *UserFilter, cache BitmapCache) (*Results, error) {
	// Every subset the plan touches — a guarded histogram's too, whether
	// or not it will be needed — is read in the one cut.
	subsets := make([]bitvec.Subset, 0, len(p.fractions)+len(p.counts))
	for _, f := range p.fractions {
		subsets = append(subsets, f.Subset)
	}
	for _, h := range p.hists {
		for _, s := range h.Subs {
			subsets = append(subsets, s.Subset)
		}
	}
	x := e.cutTable(tab, append(subsets, p.counts...), p.total, keep, cache)

	res := newResults(p)
	bitmaps, err := x.bitmaps(ctx, p.fractions)
	if err != nil {
		return nil, err
	}
	for i, f := range p.fractions {
		res.Fractions[i] = x.count(x.at(f.Subset), bitmaps[i])
	}
	// The fractions are in, so guards can fire: a histogram whose guard
	// counted records is the conjunction estimator's unused gluing fallback
	// and pays nothing.
	for i, h := range p.hists {
		if h.Skipped(res.Fractions) {
			continue
		}
		cols, users, err := x.columns(ctx, h.Subs)
		if err != nil {
			return nil, err
		}
		hist := make([]uint64, len(h.Subs)+1)
		for u := 0; u < users; u++ {
			matches := 0
			for _, col := range cols {
				matches += int(col[u>>6] >> uint(u&63) & 1)
			}
			hist[matches]++
		}
		res.Hists[i] = HistPartial{Hist: hist, Users: uint64(users)}
	}
	for i, b := range p.counts {
		res.Counts[i] = x.records(x.at(b))
	}
	if p.total {
		for si := range x.subs {
			res.Total += x.records(si)
		}
	}
	return res, nil
}

// cut is one state of a table as one execution reads it: the views of
// every subset the execution touches, taken under one lock (Table.Views),
// and the filter's keep masks over them.  Everything a plan reports — a
// fraction's hits, a histogram's bins, a subset's record count, the total
// — is a popcount or a join over evaluation bitmaps and masks of these
// views, so all of it describes the same records, whatever is written
// meanwhile.
type cut struct {
	h     prf.BitSource
	keep  *UserFilter
	cache BitmapCache
	index map[string]int // Subset.Key → the subset's position in subs
	subs  []cutSubset
}

// cutSubset is one subset of a cut: the key it is cached under, its view,
// and the filter's keep mask over the view once that has been fetched.
type cutSubset struct {
	key  string
	view sketch.View
	mask []uint64
}

// cutTable reads the subsets (a subset may be listed more than once) and,
// with all set, every other subset the table holds, in one Table.Views call.
func (e *Estimator) cutTable(tab *sketch.Table, subsets []bitvec.Subset, all bool, keep *UserFilter, cache BitmapCache) cut {
	x := cut{h: e.h, keep: keep, cache: cache, index: make(map[string]int)}
	views := tab.Views(subsets, all)
	x.subs = make([]cutSubset, 0, len(views))
	for _, v := range views {
		if x.at(v.Subset()) < 0 {
			key := v.Subset().Key()
			x.index[key] = len(x.subs)
			x.subs = append(x.subs, cutSubset{key: key, view: v})
		}
	}
	return x
}

// at returns the position of subset b in the cut, -1 if it has none.
func (x *cut) at(b bitvec.Subset) int {
	var buf [8 + 8*16]byte // as in Table.lookup: looking a subset up allocates no key
	if si, ok := x.index[string(b.AppendTag(buf[:0]))]; ok {
		return si
	}
	return -1
}

// bitmaps returns the evaluation bitmap of each pair over its subset's
// whole view — bit i is H on record i — subset by subset: from the cache
// where it holds one for the view's generation, the rest in one sharded
// pass over the view, left in the cache afterwards.  ctx is checked before
// each subset's pass.
func (x *cut) bitmaps(ctx context.Context, pairs []FractionEval) ([][]uint64, error) {
	out := make([][]uint64, len(pairs))
	groups := make([][]int, len(x.subs)) // the pairs of each subset, by position
	for i, f := range pairs {
		si := x.at(f.Subset)
		groups[si] = append(groups[si], i)
	}
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		records := x.subs[si].view
		n, gen := records.Len(), records.Gen()
		var missed []FractionEval
		var missedAt []int
		for _, i := range group {
			if x.cache != nil {
				if w, ok := x.cache.Get(CacheKey{Entry: pairs[i].Key()}, gen, n); ok {
					out[i] = w
					continue
				}
			}
			missed, missedAt = append(missed, pairs[i]), append(missedAt, i)
		}
		if len(missed) == 0 || n == 0 {
			continue
		}
		for c, w := range evalBitmaps(x.h, records, missed) {
			out[missedAt[c]] = w
			if x.cache != nil {
				x.cache.Put(CacheKey{Entry: missed[c].Key()}, gen, n, w)
			}
		}
	}
	return out, nil
}

// mask returns the keep mask of subset si's view, nil when nothing is
// filtered out (no filter, or no records).  It is fetched or built once
// per cut.
func (x *cut) mask(si int) []uint64 {
	if x.keep != nil && x.subs[si].mask == nil {
		x.subs[si].mask = x.keepMask(si)
	}
	return x.subs[si].mask
}

// records counts the records of subset si whose user the filter keeps.
func (x *cut) records(si int) uint64 {
	if x.keep == nil {
		return uint64(x.subs[si].view.Len())
	}
	return popcount(x.mask(si))
}

// count returns the Algorithm 2 counters of a pair of subset si from its
// bitmap: over how many kept records, and on how many of them H is 1.
func (x *cut) count(si int, bitmap []uint64) Partial {
	records := x.records(si)
	if records == 0 {
		return Partial{}
	}
	if x.keep == nil {
		return Partial{Hits: popcount(bitmap), Records: records}
	}
	return Partial{Hits: popcountAnd(bitmap, x.mask(si)), Records: records}
}

// columns joins the pairs by user: column j holds pair j's bit for each
// kept user with a record in every pair's subset, the users in ascending id
// order (see alignedColumns).  A histogram bins the per-user sum of the
// columns; Appendix E multiplies weights along them.
func (x *cut) columns(ctx context.Context, pairs []FractionEval) (cols [][]uint64, users int, err error) {
	if len(pairs) == 0 {
		return nil, 0, nil
	}
	bitmaps, err := x.bitmaps(ctx, pairs)
	if err != nil {
		return nil, 0, err
	}
	ids := make([]sketch.IDs, len(pairs))
	for j, f := range pairs {
		ids[j] = x.subs[x.at(f.Subset)].view.IDs()
	}
	cols, users = alignedColumns(ids, bitmaps, x.mask(x.at(pairs[0].Subset)))
	return cols, users, nil
}

// joinColumn is one id column as the join reads it: the decoded block the
// join stands in and where in the column that block starts.
type joinColumn struct {
	ids sketch.IDs
	lo  int // the column position of block[0]
	n   int // how many ids block holds
	// block is an array, not the slice Block returns, so that a joinColumn
	// points nowhere into itself and a few of them can live on the stack.
	block [sketch.IDBlockLen]bitvec.UserID
}

// refill decodes the block that holds position at, or reports that the
// column ends before it.
func (c *joinColumn) refill(at int) bool {
	if at >= c.ids.Len() {
		return false
	}
	k := at / sketch.IDBlockLen
	c.n, c.lo = len(c.ids.Block(k, &c.block)), k*sketch.IDBlockLen
	return true
}

// alignedColumns is a sort-merge join of sorted id columns.  For every
// user who is in each of them — and whose position in ids[0] mask keeps; a
// nil mask keeps all — it gathers the user's bit of each bitmaps[j], a
// bitmap over ids[j], into bit u&63 of word u>>6 of column j, u being the
// user's rank among the joined users.  The columns are aligned: bit u of
// every column belongs to the same user.  Nothing is copied but those
// bits — each column is decoded a 64-id block at a time, as the join
// reaches it, and where all of them stand at one and the same block, as
// the subsets every user published do throughout, the block joins itself
// undecoded — and one id column may be listed several times.
func alignedColumns(ids []sketch.IDs, bitmaps [][]uint64, mask []uint64) (cols [][]uint64, users int) {
	most := ids[0].Len()
	for _, other := range ids[1:] {
		most = min(most, other.Len())
	}
	words := (most + 63) / 64
	backing := make([]uint64, len(ids)*words)
	cols = make([][]uint64, len(ids))
	for j := range cols {
		cols[j] = backing[j*words : (j+1)*words]
	}
	// The usual handful of columns is joined from the stack.
	var fewColumns [4]joinColumn
	var fewAt [4]int
	join, at := fewColumns[:0], fewAt[:0] // at[j] is the join's position in ids[j]
	if len(ids) > len(fewColumns) {
		join, at = make([]joinColumn, 0, len(ids)), make([]int, 0, len(ids))
	}
	for _, column := range ids {
		join, at = append(join, joinColumn{ids: column}), append(at, 0)
	}
scan:
	for k, blocks := 0, ids[0].Blocks(); k < blocks; k++ {
		at[0] = k * sketch.IDBlockLen
		same := true
		for j := 1; j < len(join) && same; j++ {
			same = at[j]%sketch.IDBlockLen == 0 && ids[0].SameBlock(k, ids[j], at[j]/sketch.IDBlockLen)
		}
		if same {
			// User o of the block is at the same offset in every column;
			// a whole block of kept users is a word of each bitmap.
			m := min(sketch.IDBlockLen, ids[0].Len()-at[0])
			if whole := mask == nil || mask[k] == ^uint64(0); whole && m == 64 && users&63 == 0 {
				for j, a := range at {
					cols[j][users>>6], at[j] = bitmaps[j][a>>6], a+m
				}
				users += m
				continue
			}
			for o := 0; o < m; o++ {
				if mask == nil || mask[k]>>uint(o)&1 == 1 {
					for j, a := range at {
						cols[j][users>>6] |= (bitmaps[j][a>>6] >> uint(a&63) & 1) << uint(users&63)
					}
					users++
				}
				for j := range at {
					at[j]++
				}
			}
			continue
		}
	next:
		for o, id := range ids[0].Block(k, &join[0].block) {
			at[0] = k*sketch.IDBlockLen + o
			for j := 1; j < len(join); j++ {
				// Forward to the first id at or above id, block after block.
				c := &join[j]
				window, a := c.block[:c.n], at[j]-c.lo
				for {
					for a < len(window) && window[a] < id {
						a++
					}
					if at[j] = c.lo + a; a < len(window) {
						break
					}
					if !c.refill(at[j]) {
						break scan
					}
					window, a = c.block[:c.n], at[j]-c.lo
				}
				if window[a] != id {
					continue next
				}
			}
			if mask == nil || mask[k]>>uint(o)&1 == 1 {
				for j, a := range at {
					cols[j][users>>6] |= (bitmaps[j][a>>6] >> uint(a&63) & 1) << uint(users&63)
				}
				users++
			}
		}
	}
	for j := range cols {
		cols[j] = cols[j][:(users+63)/64]
	}
	return cols, users
}

// minRecordsPerWorker is the smallest record shard worth a goroutine: below
// this, spawn-and-join overhead outweighs the ~2 SHA-256 compressions per
// record, so small tables stay on the caller's goroutine.
const minRecordsPerWorker = 1024

// workersFor returns how many goroutines to shard n records across.
func workersFor(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minRecordsPerWorker))
}

// evalBitmaps computes one evaluation bitmap per fraction entry over the
// view, sharding the record loop across workers on 64-record
// boundaries so no two workers touch the same output word.  Each worker
// owns one pooled kernel per entry and one window they share, so a
// record is decoded from the view's columns once for all entries.
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
		// lo is 64-aligned (chunks are word multiples), so a staged window
		// maps onto exactly one output word; staged once, it is replayed
		// through every entry's kernel.
		var win sketch.Window
		for w := lo >> 6; w<<6 < hi; w++ {
			win.Stage(records, w)
			for j, k := range kernels {
				out[j][w] = k.Word(&win)
			}
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

// keepMask returns the filter bitmap of subset si's view: bit i set iff
// record i's user passes the filter.  A filter with a Key reads its mask
// from the cache and leaves a built one there, under (subset, filter key)
// at the view's generation and length: equal keys mean equal predicates,
// so the only thing that can change the mask is a write to the subset — the
// same generation bump that retires its evaluation bitmaps.
func (x *cut) keepMask(si int) []uint64 {
	records := x.subs[si].view
	n, gen := records.Len(), records.Gen()
	if n == 0 {
		return nil
	}
	cached := x.cache != nil && x.keep.Key != ""
	key := CacheKey{Entry: x.subs[si].key, Filter: x.keep.Key}
	if cached {
		if mask, ok := x.cache.Get(key, gen, n); ok {
			return mask
		}
	}
	mask := make([]uint64, (n+63)/64)
	var buf [sketch.IDBlockLen]bitvec.UserID
	for w := range mask {
		for i, id := range records.IDs().Block(w, &buf) {
			if x.keep.Keep(id) {
				mask[w] |= uint64(1) << uint(i)
			}
		}
	}
	if cached {
		x.cache.Put(key, gen, n, mask)
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
