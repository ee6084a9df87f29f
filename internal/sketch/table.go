package sketch

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"sketchprivacy/internal/bitvec"
)

// Table is a concurrency-safe store of published sketches, organised by the
// attribute subset they describe.  It is the analyst-side view of the world:
// everything in a Table is public.
//
// Each subset's records live once, in a column: user ids and packed sketch
// keys side by side, an id-sorted run followed by a short unsorted tail of
// recent inserts.  A read folds the tail into a fresh sorted run and hands
// the run itself out as an immutable View, so the Algorithm 2 record loop
// walks contiguous memory, allocation-free, while ingestion proceeds.
type Table struct {
	mu sync.RWMutex
	// cols is keyed by Subset.Key.  A column outlives its last record, so a
	// subset emptied by Remove and published to again keeps counting its
	// generation from where it was.
	cols map[string]*column
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{cols: make(map[string]*column)}
}

// View is one subset's records at one write generation, sorted by user id:
// parallel id and sketch-key columns that are never written again once
// handed out.  The zero View is empty.
type View struct {
	subset bitvec.Subset
	ids    []bitvec.UserID
	keys   []uint64 // packSketch words, keys[i] belonging to ids[i]
}

// Len returns the number of records in the view.
func (v View) Len() int { return len(v.ids) }

// ID returns the user id of record i.
func (v View) ID(i int) bitvec.UserID { return v.ids[i] }

// Sketch returns the sketch of record i.
func (v View) Sketch(i int) Sketch { return UnpackSketch(v.keys[i]) }

// Slice returns the records [lo, hi) as a view sharing v's columns.
func (v View) Slice(lo, hi int) View {
	return View{subset: v.subset, ids: v.ids[lo:hi:hi], keys: v.keys[lo:hi:hi]}
}

// Filter returns the records of v whose user passes keep, in fresh columns.
func (v View) Filter(keep func(bitvec.UserID) bool) View {
	out := View{subset: v.subset}
	for i, id := range v.ids {
		if keep(id) {
			out.ids = append(out.ids, id)
			out.keys = append(out.keys, v.keys[i])
		}
	}
	return out
}

// AppendTo appends the view's records to dst as Published values.
func (v View) AppendTo(dst []Published) []Published {
	for i, id := range v.ids {
		dst = append(dst, Published{ID: id, Subset: v.subset, S: UnpackSketch(v.keys[i])})
	}
	return dst
}

// Pack packs a valid sketch (Length ≤ MaxLength = 30, so Key < 2^30) into
// one word: the key above the length byte.  It is the form a column holds
// a sketch in.
func (s Sketch) Pack() uint64 { return s.Key<<8 | uint64(s.Length) }

// UnpackSketch reverses Pack.
func UnpackSketch(w uint64) Sketch { return Sketch{Key: w >> 8, Length: int(w & 0xff)} }

// Run is one subset's records in the table's own layout: parallel columns
// of user ids and Pack words.  The durable store replays itself as runs, so
// a cold start moves columns, not a Published value per record.
type Run struct {
	Subset bitvec.Subset
	IDs    []bitvec.UserID
	Keys   []uint64 // Keys[i] is the Pack word of the sketch IDs[i] published
}

// column holds one subset's records.  ids[:sorted] is the id-sorted run and
// ids[sorted:] the unsorted tail; keys runs parallel.  Views alias the run,
// so nothing below index sorted is ever written: inserts append past it,
// a tail removal swaps within the tail, and a fold or a removal from the
// run builds new arrays.
type column struct {
	subset bitvec.Subset
	ids    []bitvec.UserID
	keys   []uint64
	sorted int
	// tail maps the id of each tail record to its offset past sorted; the
	// run needs no index, it is binary-searched.
	tail map[bitvec.UserID]int
	// gen counts the writes to the column.  A cached evaluation bitmap
	// keyed by (gen, record count) is valid exactly as long as no write
	// touched the subset; folding does not bump it, the record set is the
	// same.
	gen uint64
}

// tailLimit is how long the tail of an n-record run may grow before an
// insert folds it: a fixed fraction of the run, so folding costs amortised
// O(1) copies per insert, plus a floor that spares small columns a fold per
// handful of inserts.
func tailLimit(n int) int { return n/8 + 256 }

// newColumns returns empty id and key arrays with room for n records and
// the tail that may follow them.
func newColumns(n int) ([]bitvec.UserID, []uint64) {
	c := n + tailLimit(n)
	return make([]bitvec.UserID, 0, c), make([]uint64, 0, c)
}

// find returns the index of id's record and whether the column holds one.
func (c *column) find(id bitvec.UserID) (int, bool) {
	if i, ok := slices.BinarySearch(c.ids[:c.sorted], id); ok {
		return i, true
	}
	off, ok := c.tail[id]
	return c.sorted + off, ok
}

// insert appends a record whose id the column does not hold.
func (c *column) insert(id bitvec.UserID, key uint64) {
	if len(c.ids)-c.sorted >= tailLimit(c.sorted) {
		c.fold()
	}
	c.reserve(1)
	if c.tail == nil {
		c.tail = make(map[bitvec.UserID]int)
	}
	c.tail[id] = len(c.ids) - c.sorted
	c.ids = append(c.ids, id)
	c.keys = append(c.keys, key)
}

// reserve makes room for extra more records, moving to larger arrays when
// the current ones are full.
func (c *column) reserve(extra int) {
	if len(c.ids)+extra <= cap(c.ids) {
		return
	}
	ids, keys := newColumns(len(c.ids) + extra)
	c.ids, c.keys = append(ids, c.ids...), append(keys, c.keys...)
}

// fold merges the tail into a fresh sorted run.
func (c *column) fold() {
	if len(c.ids) == c.sorted {
		return
	}
	// Sorting the tail where it lies is safe: no view reaches past sorted.
	sort.Sort(byID{c.ids[c.sorted:], c.keys[c.sorted:]})
	c.ids, c.keys = mergeRuns(c.ids[:c.sorted], c.keys[:c.sorted], c.ids[c.sorted:], c.keys[c.sorted:])
	c.sorted = len(c.ids)
	c.tail = nil
}

// byID sorts parallel id and key columns by id.
type byID struct {
	ids  []bitvec.UserID
	keys []uint64
}

func (s byID) Len() int           { return len(s.ids) }
func (s byID) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s byID) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// mergeRuns merges two id-sorted runs into fresh arrays, first record
// wins: an id of b already in a, or repeated within b, is dropped.
func mergeRuns(aIDs []bitvec.UserID, aKeys []uint64, bIDs []bitvec.UserID, bKeys []uint64) ([]bitvec.UserID, []uint64) {
	ids, keys := newColumns(len(aIDs) + len(bIDs))
	i := 0
	for j, id := range bIDs {
		for i < len(aIDs) && aIDs[i] <= id {
			ids, keys = append(ids, aIDs[i]), append(keys, aKeys[i])
			i++
		}
		if len(ids) == 0 || ids[len(ids)-1] != id {
			ids, keys = append(ids, id), append(keys, bKeys[j])
		}
	}
	return append(ids, aIDs[i:]...), append(keys, aKeys[i:]...)
}

// loadMergeRatio is how many stored records a sorted run being loaded may
// copy per record of its own: merging copies the whole column, the tail
// costs an index insert and a share of a later fold per record, and the two
// meet near this ratio.
const loadMergeRatio = 32

// loadRun adds a run of records for the column's subset, first record
// wins.  The store replays (subset, user)-ordered runs, so the run is
// normally id-sorted and lands by a bulk append or one linear merge; a run
// too short to pay for a merge, or an unsorted one, goes through the tail
// record by record.  The caller keeps ids and keys.
func (c *column) loadRun(ids []bitvec.UserID, keys []uint64) {
	if len(ids) == 0 {
		return
	}
	c.gen++
	ascending := true
	for i := 1; i < len(ids) && ascending; i++ {
		ascending = ids[i-1] < ids[i]
	}
	switch {
	case ascending && len(c.ids) == c.sorted && (c.sorted == 0 || ids[0] > c.ids[c.sorted-1]):
		c.reserve(len(ids))
		c.ids, c.keys = append(c.ids, ids...), append(c.keys, keys...)
		c.sorted = len(c.ids)
	case ascending && len(ids)*loadMergeRatio >= len(c.ids):
		c.fold()
		c.ids, c.keys = mergeRuns(c.ids, c.keys, ids, keys)
		c.sorted = len(c.ids)
	default:
		for i, id := range ids {
			if _, dup := c.find(id); !dup {
				c.insert(id, keys[i])
			}
		}
	}
}

// remove deletes the record at index i.
func (c *column) remove(i int) {
	last := len(c.ids) - 1
	if i >= c.sorted {
		delete(c.tail, c.ids[i])
		if i != last {
			c.ids[i], c.keys[i] = c.ids[last], c.keys[last]
			c.tail[c.ids[i]] = i - c.sorted
		}
		c.ids, c.keys = c.ids[:last], c.keys[:last]
		return
	}
	// Tail offsets are relative to sorted, so they survive the shift.
	ids, keys := newColumns(last)
	c.ids = append(append(ids, c.ids[:i]...), c.ids[i+1:]...)
	c.keys = append(append(keys, c.keys[:i]...), c.keys[i+1:]...)
	c.sorted--
}

// view returns the sorted run; the tail must have been folded.
func (c *column) view() View {
	return View{subset: c.subset, ids: c.ids[:c.sorted:c.sorted], keys: c.keys[:c.sorted:c.sorted]}
}

// lookup returns the column of subset b, or nil.  The tag of a subset of
// up to 16 positions is built on the stack and the map is indexed by the
// converted bytes, so the per-record ingest path allocates no key.
func (t *Table) lookup(b bitvec.Subset) *column {
	var buf [8 + 8*16]byte
	return t.cols[string(b.AppendTag(buf[:0]))]
}

// columnFor returns the column of subset b, creating it if needed.
func (t *Table) columnFor(b bitvec.Subset) *column {
	c := t.lookup(b)
	if c == nil {
		c = &column{subset: b}
		t.cols[b.Key()] = c
	}
	return c
}

// Add inserts a published sketch.  Re-publishing for the same (user, subset)
// pair is rejected: each additional sketch would spend more of the user's
// privacy budget (Corollary 3.4), so the store treats it as a protocol
// error rather than silently overwriting.
func (t *Table) Add(p Published) error {
	_, added, err := t.AddNew(&p)
	if err == nil && !added {
		err = fmt.Errorf("sketch: user %v already published a sketch for subset %v", p.ID, p.Subset)
	}
	return err
}

// AddNew inserts p unless its (user, subset) pair already holds a sketch,
// in which case the existing sketch is returned with added=false and NO
// error: the caller decides whether the duplicate is an idempotent
// re-publish or a budget violation.  The engine's ingest path is hot under
// cluster retry convergence — every replicated retry is a duplicate here —
// so this path must not pay Add's formatted rejection error per record.
//
// p.Subset is replaced by the table's own Subset value for that subset, so
// a caller that goes on holding many records (the in-memory store, a
// queued commit window) shares one Subset per column instead of pinning
// one per decoded record.
func (t *Table) AddNew(p *Published) (existing Sketch, added bool, err error) {
	if !p.S.Valid() {
		return Sketch{}, false, fmt.Errorf("sketch: invalid sketch %v", p.S)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.columnFor(p.Subset)
	p.Subset = c.subset
	if i, dup := c.find(p.ID); dup {
		return UnpackSketch(c.keys[i]), false, nil
	}
	c.insert(p.ID, p.S.Pack())
	c.gen++
	return Sketch{}, true, nil
}

// AddAll inserts a batch of published sketches, stopping at the first error.
func (t *Table) AddAll(ps []Published) error {
	for _, p := range ps {
		if err := t.Add(p); err != nil {
			return err
		}
	}
	return nil
}

// LoadRun bulk-inserts one subset's records with replay semantics: a
// (user, subset) pair already present is skipped — first record wins,
// matching a store's newest-wins replay — instead of being rejected like
// Add's protocol error, because replaying a store onto a warm table is not
// a second publish.  It costs one column lookup, and for an id-sorted run
// — what a store replays — one bulk append or linear merge rather than an
// index insert per record.  A run holding an invalid sketch loads nothing.
// The run's columns are copied; the caller keeps them.
func (t *Table) LoadRun(r Run) error {
	if len(r.IDs) != len(r.Keys) {
		return fmt.Errorf("sketch: run of %d ids and %d sketches", len(r.IDs), len(r.Keys))
	}
	for _, w := range r.Keys {
		if s := UnpackSketch(w); !s.Valid() || s.Pack() != w {
			return fmt.Errorf("sketch: invalid sketch %v", s)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.columnFor(r.Subset).loadRun(r.IDs, r.Keys)
	return nil
}

// Remove deletes the record user id published for subset b, reporting
// whether one existed.  It exists for the engine's durability rollback —
// a record whose durable append failed must not stay queryable, or it
// would influence analysts until the restart silently drops it — and is
// not a user-facing "unpublish": the privacy spend of a published sketch
// is not recoverable.
func (t *Table) Remove(id bitvec.UserID, b bitvec.Subset) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.lookup(b)
	if c == nil {
		return false
	}
	i, ok := c.find(id)
	if !ok {
		return false
	}
	c.remove(i)
	c.gen++
	return true
}

// Get returns the sketch user id published for subset b, if any.
func (t *Table) Get(id bitvec.UserID, b bitvec.Subset) (Sketch, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := t.lookup(b)
	if c == nil {
		return Sketch{}, false
	}
	i, ok := c.find(id)
	if !ok {
		return Sketch{}, false
	}
	return UnpackSketch(c.keys[i]), true
}

// View returns the records of subset b, sorted by user id, together with
// the write generation they correspond to.  The pair is read under one
// lock, so a bitmap computed over the view and cached under the generation
// can never be popcounted against another record set: every Add, LoadRun and
// Remove bumps the generation.  A stable subset hands out the same columns
// to every reader; the first read after a write folds the pending inserts
// in, a linear merge.
func (t *Table) View(b bitvec.Subset) (View, uint64) {
	t.mu.RLock()
	c := t.lookup(b)
	if c == nil {
		t.mu.RUnlock()
		return View{}, 0
	}
	if len(c.ids) == c.sorted {
		v, gen := c.view(), c.gen
		t.mu.RUnlock()
		return v, gen
	}
	t.mu.RUnlock()
	// Columns are never dropped from the map, so c is still the subset's
	// column under the write lock.
	t.mu.Lock()
	defer t.mu.Unlock()
	c.fold()
	return c.view(), c.gen
}

// Snapshot returns the records for subset b, sorted by user id, as a fresh
// slice of Published values the caller owns; the table keeps no reference
// to it.  Query code reads a View instead and skips the materialisation.
func (t *Table) Snapshot(b bitvec.Subset) []Published {
	v, _ := t.View(b)
	if v.Len() == 0 {
		return nil
	}
	return v.AppendTo(make([]Published, 0, v.Len()))
}

// CountForSubset returns the number of users that published a sketch for
// subset b.
func (t *Table) CountForSubset(b bitvec.Subset) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if c := t.lookup(b); c != nil {
		return len(c.ids)
	}
	return 0
}

// HasSubset reports whether any sketches exist for subset b.
func (t *Table) HasSubset(b bitvec.Subset) bool { return t.CountForSubset(b) > 0 }

// Subsets returns the distinct subsets present, sorted by their canonical
// tag so the order is deterministic.
func (t *Table) Subsets() []bitvec.Subset {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]string, 0, len(t.cols))
	for k, c := range t.cols {
		if len(c.ids) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]bitvec.Subset, len(keys))
	for i, k := range keys {
		out[i] = t.cols[k].subset
	}
	return out
}

// ViewsWithAll returns one view per subset, restricted to the users that
// published a sketch for every one of the subsets and pass keep (nil keep:
// all of them).  The views are aligned: all have the same length and
// record i of each belongs to the same user, in ascending id order.  They
// are cut from one consistent state of the table — the named columns are
// read under a single lock — into fresh arrays, so a concurrent Remove can
// neither tear a user out from between two subsets nor change what was
// returned.  The Appendix F combination can only use those users.
func (t *Table) ViewsWithAll(subsets []bitvec.Subset, keep func(bitvec.UserID) bool) []View {
	if len(subsets) == 0 {
		return nil
	}
	// One exclusive section yields a consistent set of columns; the
	// intersection then walks immutable sorted runs outside any lock.
	cols := make([]View, len(subsets))
	t.mu.Lock()
	for i, b := range subsets {
		if c := t.lookup(b); c != nil {
			c.fold()
			cols[i] = c.view()
		}
	}
	t.mu.Unlock()
	out := make([]View, len(subsets))
	var ids []bitvec.UserID
	at := make([]int, len(cols))
next:
	for i, id := range cols[0].ids {
		at[0] = i
		for j := 1; j < len(cols); j++ {
			other := cols[j].ids
			for at[j] < len(other) && other[at[j]] < id {
				at[j]++
			}
			if at[j] == len(other) {
				break next
			}
			if other[at[j]] != id {
				continue next
			}
		}
		if keep != nil && !keep(id) {
			continue
		}
		ids = append(ids, id)
		for j := range out {
			out[j].keys = append(out[j].keys, cols[j].keys[at[j]])
		}
	}
	for j := range out {
		out[j].subset, out[j].ids = subsets[j], ids
	}
	return out
}

// Len returns the total number of stored sketches across all subsets.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, c := range t.cols {
		n += len(c.ids)
	}
	return n
}

// SketchesPerUser returns how many sketches each user has published; the
// privacy auditor uses it to report per-user ε budgets.
func (t *Table) SketchesPerUser() map[bitvec.UserID]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[bitvec.UserID]int)
	for _, c := range t.cols {
		for _, id := range c.ids {
			out[id]++
		}
	}
	return out
}
