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
// evaluation bitmap (Entry is FractionEval.Key, Filter the UserFilter.Key
// it was computed under, empty without a filter) or, with Mask set, the keep
// mask of a filter (Entry is SubsetKey, Filter is UserFilter.Key).  Mask
// tells the two kinds apart, so neither can be served as the other.  Entry
// is a compact key, 14 bytes for a P10 pair's bitmap, its own allocation
// (16 bytes); Filter shares the filter's string, nothing copied per key.
type CacheKey struct {
	Mask   bool
	Entry  string
	Filter string
}

// BitmapCache caches evaluation bitmaps and keep masks across plan
// executions.  A keep mask is one bit per record of a subset's sorted view;
// an evaluation bitmap is one bit per record its filter keeps, in view
// order (per record of the view without a filter), so under a filter it is
// ⌈kept/64⌉ words however large the view.  Both are valid only for the
// table generation they were computed at, so implementations key entries
// by generation and a write to the subset (which bumps the generation)
// invalidates them implicitly.  The engine provides the durable
// implementation; a nil cache simply recomputes.
//
// An evaluation bitmap is read one of two ways: a fraction reads its count
// (Hits), a join its words (Get).  A fraction's miss is Put as its count
// alone, so a Get misses where a Hits on the same key hits, and the join
// computes the bitmap again and Puts it with its words.
type BitmapCache interface {
	// Get returns the cached words under key, if an entry exists for
	// exactly this generation and record count and holds them.
	Get(key CacheKey, gen uint64, records int) ([]uint64, bool)
	// Hits returns how many bits the cached bitmap under key sets, if an
	// entry exists for exactly this generation and record count, whether
	// or not it holds the words.
	Hits(key CacheKey, gen uint64, records int) (uint64, bool)
	// Put stores a computed bitmap's count, hits, and its words where a
	// reader of them asked for it — a join, or a keep mask's filtered scan —
	// nil for a fraction's.  The words become shared and immutable.
	Put(key CacheKey, gen uint64, records int, hits uint64, words []uint64)
	// Evaluated reports what the misses cost, once per subset scan: n
	// evaluations of H, the records the filter keeps times the pairs
	// missed.  A scan under a filter without a Key reports too.
	Evaluated(n uint64)
}

// ExecutePlanOver runs an entire plan against one table.  The execution
// reads ONE state of the table — every subset the plan touches is cut
// under one lock (see cut) — and every (subset, value) pair the plan
// mentions, a fraction entry or a histogram's sub-query alike, becomes an
// evaluation bitmap over its subset's view: the record loop is sharded
// across GOMAXPROCS workers, each record's shared PRF message parts (tuple
// header, user id, sketch key) are encoded once and reused across every
// pair of the subset, and an attached cache reduces repeated and
// overlapping evaluations to cached counts and joins of cached bitmaps.
// The counters produced are bit-identical to evaluating H once per record
// and entry in a serial loop (FuzzPlanEquivalence asserts this against the
// scalar oracle in oracle_test.go): evaluation H is deterministic per
// record, so batching, sharding and caching cannot change any count.
//
// keep restricts every counter to records whose user passes the filter,
// and H is evaluated on those records only: each subset's keep mask —
// itself cached when the filter has a Key — is fetched before its pairs are
// scanned, and a bitmap holds a bit for each record the mask keeps and for
// no other.  Such a bitmap is cached under the filter's Key beside the
// pair's; under a filter without a Key it is not cached at all.
func (e *Estimator) ExecutePlanOver(tab *sketch.Table, p *Plan, keep *UserFilter, cache BitmapCache) (*Results, error) {
	return e.ExecutePlanOverCtx(context.Background(), tab, p, keep, cache)
}

// ExecutePlanOverCtx is ExecutePlanOver bounded by a context: the executor
// checks ctx at every work-unit boundary (before each subset's scan) and
// abandons the plan with ctx.Err() once it is done.  A distributed node
// runs queries under the router's end-to-end deadline budget — and under
// its ownership filter, so it evaluates H on the records it owns and no
// others — through this: work the router has stopped waiting for should
// stop burning cores.  The granularity is a whole subset, which keeps the
// hot record loop check-free; a scan is milliseconds even at the largest
// benchmarked tables, so cancellation latency stays small.
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
	hits := make([]uint64, len(p.fractions))
	if err := x.scan(ctx, p.fractions, p.joins(), nil, hits); err != nil {
		return nil, err
	}
	for i, f := range p.fractions {
		res.Fractions[i] = x.count(x.at(f.Subset), hits[i])
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
	index map[string]int // SubsetKey → the subset's position in subs
	subs  []cutSubset
}

// cutSubset is one subset of a cut: the key its masks are cached under
// (SubsetKey), its view, and the filter's keep mask over the view once that
// has been fetched.
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
			key := SubsetKey(v.Subset())
			x.index[key] = len(x.subs)
			x.subs = append(x.subs, cutSubset{key: key, view: v})
		}
	}
	return x
}

// at returns the position of subset b in the cut, -1 if it has none.
func (x *cut) at(b bitvec.Subset) int {
	var buf [pairKeyRoom]byte // looking a subset up allocates no key
	if si, ok := x.index[string(b.AppendCompact(buf[:0]))]; ok {
		return si
	}
	return -1
}

// joins says which of the plan's fractions an unguarded histogram names
// too, nil where it names none.  A fraction pass that evaluates one of
// those leaves its words in the cache for the join, so a pair the plan
// names both ways is evaluated once.
func (p *Plan) joins() (join []bool) {
	for _, h := range p.hists {
		for _, s := range h.Subs {
			var buf [pairKeyRoom]byte // as in FractionEval.Key
			if i, ok := p.fracIdx[string(appendPairKey(buf[:0], s.Subset, s.Value))]; ok && !h.GuardValid {
				if join == nil {
					join = make([]bool, len(p.fractions))
				}
				join[i] = true
			}
		}
	}
	return
}

// scan reads each pair's evaluation bitmap over its subset's view — bit r
// is H on the r-th record the filter keeps (record r without a filter) —
// into bitmaps, for a join; with bitmaps nil it reads how many bits each
// sets into hits, for a fraction.  Subset by subset, it takes them from the
// cache where it holds one for the view's generation and the filter's Key
// (Get for a bitmap, Hits for a count), and computes the rest in one
// sharded pass over the records the subset's keep mask keeps, each Put in
// the cache afterwards: with its words where it was read as a bitmap or
// join names it (a join of the plan reads it next), as its count alone
// otherwise.  A filter without a Key names no bitmap, so its bitmaps are
// neither looked up nor left.  ctx is checked before each subset's pass.
func (x *cut) scan(ctx context.Context, pairs []FractionEval, join []bool, bitmaps [][]uint64, hits []uint64) error {
	groups := make([][]int, len(x.subs)) // the pairs of each subset, by position
	for i, f := range pairs {
		si := x.at(f.Subset)
		groups[si] = append(groups[si], i)
	}
	var filter string
	if x.keep != nil {
		filter = x.keep.Key
	}
	cached := x.cache != nil && (x.keep == nil || filter != "")
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		records := x.subs[si].view
		n, gen := records.Len(), records.Gen()
		var missed []FractionEval
		var missedAt []missedPair
		for _, i := range group {
			var entry string
			if cached {
				entry = pairs[i].Key()
				key := CacheKey{Entry: entry, Filter: filter}
				if bitmaps != nil {
					if w, ok := x.cache.Get(key, gen, n); ok {
						bitmaps[i] = w
						continue
					}
				} else if c, ok := x.cache.Hits(key, gen, n); ok {
					hits[i] = c
					continue
				}
			}
			missed, missedAt = append(missed, pairs[i]), append(missedAt, missedPair{i, entry})
		}
		if len(missed) == 0 || n == 0 {
			continue
		}
		keep := x.mask(si)
		kept := uint64(n)
		if keep != nil {
			kept = popcount(keep)
		}
		if x.cache != nil {
			x.cache.Evaluated(kept * uint64(len(missed)))
		}
		for c, w := range evalBitmaps(x.h, records, missed, keep, int(kept)) {
			i, count := missedAt[c].at, popcount(w)
			if bitmaps != nil {
				bitmaps[i] = w
			} else {
				hits[i] = count
				if join == nil || !join[i] {
					w = nil // the count alone is cached
				}
			}
			if cached {
				x.cache.Put(CacheKey{Entry: missedAt[c].entry, Filter: filter}, gen, n, count, w)
			}
		}
	}
	return nil
}

// missedPair is a pair a scan missed: where it is in the scan's pairs, and
// its Entry, built once for its lookup and its Put ("" uncached).
type missedPair struct {
	at    int
	entry string
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
// bitmap's popcount: over how many kept records, and on how many of them H
// is 1 — hits, the bitmap holding a bit for the kept records only.
func (x *cut) count(si int, hits uint64) Partial {
	records := x.records(si)
	if records == 0 {
		return Partial{}
	}
	return Partial{Hits: hits, Records: records}
}

// columns joins the pairs by user: column j holds pair j's bit for each
// kept user with a record in every pair's subset, the users in ascending id
// order (see alignedColumns).  A histogram bins the per-user sum of the
// columns; Appendix E multiplies weights along them.
func (x *cut) columns(ctx context.Context, pairs []FractionEval) (cols [][]uint64, users int, err error) {
	if len(pairs) == 0 {
		return nil, 0, nil
	}
	bitmaps := make([][]uint64, len(pairs))
	if err := x.scan(ctx, pairs, nil, bitmaps, nil); err != nil {
		return nil, 0, err
	}
	ids, masks := make([]sketch.IDs, len(pairs)), make([][]uint64, len(pairs))
	for j, f := range pairs {
		si := x.at(f.Subset)
		ids[j], masks[j] = x.subs[si].view.IDs(), x.mask(si)
	}
	cols, users = alignedColumns(ids, bitmaps, masks)
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
// user who is in each of them and kept — masks[j] is column j's keep mask,
// nil keeping all, and the masks are one filter's, so a user one of them
// keeps every one of them keeps — it gathers the user's bit of each
// bitmaps[j] into bit u&63 of word u>>6 of column j, u being the user's
// rank among the joined users.  bitmaps[j] holds a bit per record masks[j]
// keeps, in column order, so a user's bit is at its rank among its
// column's kept records: the join carries each column's rank beside its
// position, advancing it by the popcount of the mask bits it passes, and
// builds no prefix array.  The columns are aligned: bit u of every column
// belongs to the same user.  Nothing is copied but those bits — each column
// is decoded a 64-id block at a time, as the join reaches it, and where all
// of them stand at one and the same block, as the subsets every user
// published do throughout, the block joins itself undecoded, each column's
// run of the block's kept bits copied whole — and one id column may be
// listed several times.
func alignedColumns(ids []sketch.IDs, bitmaps, masks [][]uint64) (cols [][]uint64, users int) {
	words := len(bitmaps[0]) // no column joins more users than it keeps
	for _, bitmap := range bitmaps[1:] {
		words = min(words, len(bitmap))
	}
	backing := make([]uint64, len(ids)*words)
	cols = make([][]uint64, len(ids))
	for j := range cols {
		cols[j] = backing[j*words : (j+1)*words]
	}
	// The usual handful of columns is joined from the stack.  at[j] is the
	// join's position in ids[j], rank[j] how many records before it masks[j]
	// keeps: where its bit is in bitmaps[j].
	var fewColumns [4]joinColumn
	var fewAt, fewRank [4]int
	join, at, rank := fewColumns[:0], fewAt[:0], fewRank[:0]
	if len(ids) > len(fewColumns) {
		join, at, rank = make([]joinColumn, 0, len(ids)), make([]int, 0, len(ids)), make([]int, 0, len(ids))
	}
	for _, column := range ids {
		join, at, rank = append(join, joinColumn{ids: column}), append(at, 0), append(rank, 0)
	}
scan:
	for k, blocks := 0, ids[0].Blocks(); k < blocks; k++ {
		at[0] = k * sketch.IDBlockLen
		same := true
		for j := 1; j < len(join) && same; j++ {
			same = at[j]%sketch.IDBlockLen == 0 && ids[0].SameBlock(k, ids[j], at[j]/sketch.IDBlockLen)
		}
		if same {
			// User o of the block is at the same offset in every column, and
			// kept in all of them or in none: the block's kept users are the
			// next c bits of each bitmap.
			if c := windowKept(masks[0], ids[0].Len(), k); c > 0 {
				for j, r := range rank {
					depositBits(cols[j], users, bitsAt(bitmaps[j], r, c), c)
					rank[j] = r + c
				}
				users += c
			}
			m := min(sketch.IDBlockLen, ids[0].Len()-at[0])
			for j := range at {
				at[j] += m
			}
			continue
		}
	next:
		for o, id := range ids[0].Block(k, &join[0].block) {
			if masks[0] != nil && masks[0][k]>>uint(o)&1 == 0 {
				continue
			}
			for j := 1; j < len(join); j++ {
				// Forward to the first id at or above id, block after block,
				// the rank with it.
				c := &join[j]
				window, a := c.block[:c.n], at[j]-c.lo
				for {
					for a < len(window) && window[a] < id {
						a++
					}
					rank[j] += keptIn(masks[j], at[j], c.lo+a)
					if at[j] = c.lo + a; a < len(window) {
						break
					}
					if !c.refill(at[j]) {
						break scan
					}
					window, a = c.block[:c.n], at[j]-c.lo
				}
				if window[a] != id {
					rank[0]++
					continue next
				}
			}
			for j, r := range rank {
				cols[j][users>>6] |= (bitmaps[j][r>>6] >> uint(r&63) & 1) << uint(users&63)
			}
			users++
			rank[0]++
		}
	}
	for j := range cols {
		cols[j] = cols[j][:(users+63)/64]
	}
	return cols, users
}

// keptIn counts the positions in [from, to) that mask keeps; a nil mask
// keeps all.
func keptIn(mask []uint64, from, to int) int {
	if mask == nil {
		return to - from
	}
	n := 0
	for from < to {
		end := min(to, (from|63)+1) // the end of from's word
		word := mask[from>>6] >> uint(from&63)
		if span := end - from; span < 64 {
			word &= 1<<uint(span) - 1
		}
		n += bits.OnesCount64(word)
		from = end
	}
	return n
}

// bitsAt returns bits [r, r+c) of bitmap in the low c bits, 0 < c ≤ 64.
func bitsAt(bitmap []uint64, r, c int) uint64 {
	w, sh := r>>6, uint(r&63)
	x := bitmap[w] >> sh
	if int(sh)+c > 64 {
		x |= bitmap[w+1] << (64 - sh)
	}
	if c < 64 {
		x &= 1<<uint(c) - 1
	}
	return x
}

// depositBits ORs the low c bits of x into bits [u, u+c) of dst.
func depositBits(dst []uint64, u int, x uint64, c int) {
	w, sh := u>>6, uint(u&63)
	dst[w] |= x << sh
	if int(sh)+c > 64 {
		dst[w+1] |= x >> (64 - sh)
	}
}

// minRecordsPerWorker is the smallest record shard worth a goroutine: below
// this, spawn-and-join overhead outweighs the ~2 SHA-256 compressions per
// record, so small tables stay on the caller's goroutine.
const minRecordsPerWorker = 1024

// workersFor returns how many goroutines to shard n records across.
func workersFor(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minRecordsPerWorker))
}

// windowKept returns how many records of 64-record window w of an n-record
// view keep keeps; a nil keep keeps all.
func windowKept(keep []uint64, n, w int) int {
	if keep == nil {
		return min(sketch.IDBlockLen, n-w*sketch.IDBlockLen)
	}
	return bits.OnesCount64(keep[w])
}

// scanShard is what one scan worker evaluates: windows [lo, hi) of a view,
// whose first kept record is the rank-th — where its bits start in every
// evaluation bitmap.
type scanShard struct{ lo, hi, rank int }

// splitKept cuts the windows of an n-record view into at most parts shards
// of about kept/parts kept records each — within a window's 64 records of
// it — by the windows' ranks, the popcount of keep before them (a nil keep
// keeps all n).  A tenant's contiguous id range, all of whose kept records
// may lie in a few windows, is split as evenly as an interleaved ownership
// filter is.  Windows past the last kept record, and shards that would keep
// nothing, are left out.
func splitKept(keep []uint64, n, kept, parts int) []scanShard {
	windows := (n + sketch.IDBlockLen - 1) / sketch.IDBlockLen
	shards := make([]scanShard, 0, parts)
	lo, rank := 0, 0
	for i := 1; i <= parts; i++ {
		s := scanShard{lo: lo, hi: lo, rank: rank}
		for s.hi < windows && rank < i*kept/parts {
			rank += windowKept(keep, n, s.hi)
			s.hi++
		}
		if rank > s.rank {
			shards = append(shards, s)
		}
		lo = s.hi
	}
	return shards
}

// evalBitmaps computes one evaluation bitmap per fraction entry over the
// records of the view that keep keeps (a nil keep keeps all; kept is how
// many it keeps): ⌈kept/64⌉ words, bit r H on the r-th kept record.  Each
// window's outcomes are appended at its rank.  The record loop is sharded
// across workers by splitKept, so each worker evaluates about the same
// number of kept records, however they lie in the view.  Each worker owns
// one pooled kernel per entry and one window they share, so a record is
// decoded from the view's columns once for all entries.  A window keep keeps
// nothing of is not staged.
//
// A worker writes every word its records fill alone, and its first word —
// which the worker before it ends in unless its rank is a multiple of 64 —
// into its own slot, ORed into the bitmap once both are done; so no two
// workers write one word.
func evalBitmaps(h prf.BitSource, records sketch.View, evals []FractionEval, keep []uint64, kept int) [][]uint64 {
	n := records.Len()
	out := make([][]uint64, len(evals))
	for j := range out {
		out[j] = make([]uint64, (kept+63)/64)
	}
	eval := func(s scanShard, head []uint64) {
		kernels := make([]*sketch.Kernel, len(evals))
		for j, ev := range evals {
			kernels[j] = sketch.AcquireKernel(h, ev.Subset, ev.Value)
		}
		defer func() {
			for _, k := range kernels {
				k.Release()
			}
		}()
		// Word at of each bitmap holds fill bits so far, acc[j] of bitmap j.
		acc := make([]uint64, len(evals))
		at, fill := s.rank>>6, s.rank&63
		store := func(j int) {
			if at == s.rank>>6 && s.rank&63 != 0 {
				head[j] = acc[j]
			} else {
				out[j][at] = acc[j]
			}
		}
		// A window is staged once and replayed through every entry's kernel.
		var win sketch.Window
		for w := s.lo; w < s.hi; w++ {
			m := ^uint64(0)
			if keep != nil {
				if m = keep[w]; m == 0 {
					continue
				}
			}
			win.Stage(records, w, m)
			c := windowKept(keep, n, w)
			full := fill+c >= 64
			for j, k := range kernels {
				word := k.Word(&win)
				acc[j] |= word << uint(fill)
				if full {
					store(j)
					acc[j] = word >> uint(64-fill) // all of word's bits went in when fill is 0
				}
			}
			if fill += c; full {
				fill -= 64
				at++
			}
		}
		if fill > 0 {
			for j := range acc {
				store(j)
			}
		}
	}
	shards := splitKept(keep, n, kept, workersFor(kept*len(evals)))
	if len(shards) <= 1 {
		for _, s := range shards {
			eval(s, nil) // rank 0: no word shared
		}
		return out
	}
	heads := make([]uint64, len(shards)*len(evals))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(s scanShard, head []uint64) {
			defer wg.Done()
			eval(s, head)
		}(s, heads[i*len(evals):(i+1)*len(evals)])
	}
	wg.Wait()
	for i, s := range shards {
		if s.rank&63 != 0 {
			for j := range out {
				out[j][s.rank>>6] |= heads[i*len(evals)+j]
			}
		}
	}
	return out
}

// keepMask returns the filter bitmap of subset si's view: bit i set iff
// record i's user passes the filter.  A filter with a Key reads its mask
// from the cache and leaves a built one there, under (subset, filter key)
// at the view's generation and length: equal keys mean equal predicates,
// so the only thing that can change the mask is a write to the subset — the
// same generation bump that retires its evaluation bitmaps.  A mask is a
// function of the ids and the filter alone, so where another subset of the
// cut holds the very same id column (sketch.IDs.Same: the table gives
// subsets that hold the same users one column), its mask is taken — the one
// it fetched in this cut, or else the one the cache holds under its key at
// its generation — and cached under this subset's key too.  Only where
// none of them has one is the filter asked.
func (x *cut) keepMask(si int) []uint64 {
	records := x.subs[si].view
	n, gen := records.Len(), records.Gen()
	if n == 0 {
		return nil
	}
	cached := x.cache != nil && x.keep.Key != ""
	key := CacheKey{Mask: true, Entry: x.subs[si].key, Filter: x.keep.Key}
	if cached {
		if mask, ok := x.cache.Get(key, gen, n); ok {
			return mask
		}
	}
	// A sibling's mask fetched in this cut first, then one cached under a
	// sibling's key, which is that sibling's for the rest of the cut.
	var mask []uint64
	ids := records.IDs()
	for sj := range x.subs {
		if o := &x.subs[sj]; o.mask != nil && o.view.IDs().Same(ids) {
			mask = o.mask
			break
		}
	}
	for sj := 0; mask == nil && cached && sj < len(x.subs); sj++ {
		if o := &x.subs[sj]; sj != si && o.view.IDs().Same(ids) {
			o.mask, _ = x.cache.Get(CacheKey{Mask: true, Entry: o.key, Filter: x.keep.Key}, o.view.Gen(), o.view.Len())
			mask = o.mask
		}
	}
	if mask == nil {
		mask = make([]uint64, (n+63)/64)
		var buf [sketch.IDBlockLen]bitvec.UserID
		for w := range mask {
			for i, id := range ids.Block(w, &buf) {
				if x.keep.Keep(id) {
					mask[w] |= uint64(1) << uint(i)
				}
			}
		}
	}
	if cached {
		x.cache.Put(key, gen, n, popcount(mask), mask)
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
