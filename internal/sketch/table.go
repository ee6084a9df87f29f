package sketch

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"sketchprivacy/internal/bitvec"
)

// Table is a concurrency-safe store of published sketches, organised by the
// attribute subset they describe.  It is the analyst-side view of the world:
// everything in a Table is public.
//
// A subset's sketches share one length: the first record a column takes
// sets it, and a write of another length is refused with ErrForeignLength
// (a deployment fixes ℓ, Lemma 3.1).  A second, different sketch for a
// (user, subset) pair is refused with ErrConflict (Corollary 3.4).
//
// Each subset's records live once, in a column: user ids (IDs) and packed
// sketch words (Words) side by side, an id-sorted run sized exactly and,
// apart from it, a short unsorted tail of recent inserts.  A read folds the
// tail into a fresh sorted run and hands the run itself out as an immutable
// View, so the Algorithm 2 record loop walks contiguous memory,
// allocation-free, while ingestion proceeds — and a subset that is only
// read holds its ids as the differences between them (a little over a byte
// for ids numbered as users enrol), its sketches' keys in their own ℓ bits
// (9 bits for a 9-bit sketch, the length written once) and nothing else.
type Table struct {
	mu sync.RWMutex
	// cols is keyed by Subset.Key.  A column only grows: no write removes
	// or replaces a record (a sketch is published once per user and subset,
	// Corollary 3.4), so a record a view holds is in every later view.
	cols map[string]*column
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{cols: make(map[string]*column)}
}

// View is one subset's records at one write generation, sorted by user id:
// parallel id and sketch-word columns that are never written again once
// handed out — a later write lands in new arrays, so a held view reads
// what it read when it was taken.  The zero View is empty.
type View struct {
	subset bitvec.Subset
	gen    uint64
	ids    IDs
	keys   Words // keys.At(i) is the Pack word of the sketch id i published
}

// Subset returns the subset whose records the view holds.
func (v View) Subset() bitvec.Subset { return v.subset }

// Gen returns the subset's write generation the view was cut at: it moves
// with every write to the subset, so whatever was computed over a view stays
// valid exactly while a fresh view reports the same generation and length.
// A subset the table never held is at generation 0.
func (v View) Gen() uint64 { return v.gen }

// Len returns the number of records in the view.
func (v View) Len() int { return v.ids.Len() }

// ID returns the user id of record i; a loop over the records reads
// IDs().Block instead.
func (v View) ID(i int) bitvec.UserID { return v.ids.At(i) }

// IDs returns the user ids of the records, ascending: the view's own
// column, which a sequential reader decodes a 64-record block at a time.
func (v View) IDs() IDs { return v.ids }

// Sketch returns the sketch of record i.
func (v View) Sketch(i int) Sketch { return v.keys.Sketch(i) }

// Slice returns the records [lo, hi) as a view sharing v's columns.
func (v View) Slice(lo, hi int) View {
	return View{subset: v.subset, gen: v.gen, ids: v.ids.Slice(lo, hi), keys: v.keys.Slice(lo, hi)}
}

// AppendTo appends the view's records to dst as Published values.
func (v View) AppendTo(dst []Published) []Published {
	return Run{Subset: v.subset, IDs: v.ids, Keys: v.keys}.AppendTo(dst)
}

// Run is one subset's records in the table's own layout: parallel columns
// of user ids, ascending, and Pack words.  The durable store replays itself
// as runs, so a cold start moves columns, not a Published value per record.
type Run struct {
	Subset bitvec.Subset
	IDs    IDs
	Keys   Words // Keys.At(i) is the Pack word of the sketch id i published
}

// Len returns the number of records in the run.
func (r Run) Len() int { return r.IDs.Len() }

// Record returns record i of the run; a loop over the records reads
// AppendTo or IDs.Block instead.
func (r Run) Record(i int) Published {
	return Published{ID: r.IDs.At(i), Subset: r.Subset, S: r.Keys.Sketch(i)}
}

// Slice returns records [lo, hi) as a run sharing r's columns.
func (r Run) Slice(lo, hi int) Run {
	return Run{Subset: r.Subset, IDs: r.IDs.Slice(lo, hi), Keys: r.Keys.Slice(lo, hi)}
}

// AppendTo appends the run's records to dst as Published values.
func (r Run) AppendTo(dst []Published) []Published {
	var buf [IDBlockLen]bitvec.UserID
	for k, blocks := 0, r.IDs.Blocks(); k < blocks; k++ {
		for j, id := range r.IDs.Block(k, &buf) {
			dst = append(dst, Published{ID: id, Subset: r.Subset, S: r.Keys.Sketch(k*IDBlockLen + j)})
		}
	}
	return dst
}

// Clone returns a copy of the run that shares nothing writable with it:
// an id column is immutable, the words are copied.
func (r Run) Clone() Run {
	return Run{Subset: r.Subset, IDs: r.IDs, Keys: r.Keys.Clone()}
}

// column holds one subset's records in two parts.  ids and keys are the
// id-sorted run: sized exactly, and never written once set — views alias
// them, so a fold or a load builds new arrays.
// tailIDs and tailKeys are the recent inserts in arrival order, in small
// arrays of their own that no view reaches.  Both parts hold their
// sketches at the column's one length (shape).
type column struct {
	subset   bitvec.Subset
	ids      IDs
	keys     Words
	tailIDs  []bitvec.UserID
	tailKeys Words
	// index locates the tail's records by id: open addressing over tail
	// offsets + 1 (0 is a free slot), a power of two at most half full,
	// probed linearly from the id's hash.  With it a tail record holds
	// ≈ 20 B of heap, where a map index made it ≈ 49; the run needs no
	// index, it is binary-searched.
	index []uint32
	// gen counts the writes to the column.  A cached evaluation bitmap
	// keyed by (gen, record count) is valid exactly as long as no write
	// touched the subset; folding does not bump it, the record set is the
	// same.
	gen uint64
}

// tailLimit is how long the tail of an n-record run may grow before an
// insert folds it: a fixed fraction of the run, so folding costs amortised
// O(1) copies per insert, plus a floor that spares small columns a fold per
// handful of inserts.  The floor is also the room a tail's arrays start
// with, which spares every fold's successor their first eight doublings.
func tailLimit(n int) int { return n/8 + tailFloor }

const tailFloor = 256

// len returns the number of records the column holds.
func (c *column) len() int { return c.ids.Len() + len(c.tailIDs) }

// shape returns the length the column's sketches share, 0 while it holds
// none.
func (c *column) shape() Shape {
	if c.keys.Len() > 0 {
		return c.keys.Shape()
	}
	return c.tailKeys.Shape()
}

// admits returns nil if the column takes sketches of the given length — its
// own, or any while it holds none — and the ErrForeignLength refusal of
// user id's otherwise.
func (c *column) admits(id bitvec.UserID, length int) error {
	if sh := c.shape(); c.len() > 0 && sh != Shape(length) {
		return foreignLength(id, c.subset, length, int(sh))
	}
	return nil
}

// find returns the index of id's record — below c.ids.Len() in the run, its
// tail offset past that otherwise — and whether the column holds one.
func (c *column) find(id bitvec.UserID) (int, bool) {
	if i, ok := c.ids.Find(id); ok {
		return i, true
	}
	return c.findTail(id)
}

// findTail is find for an id the run does not hold.
func (c *column) findTail(id bitvec.UserID) (int, bool) {
	if len(c.index) == 0 {
		return 0, false
	}
	mask := len(c.index) - 1
	for h := tailSlot(id, mask); ; h = (h + 1) & mask {
		switch off := c.index[h]; {
		case off == 0:
			return 0, false
		case c.tailIDs[off-1] == id:
			return c.ids.Len() + int(off-1), true
		}
	}
}

// tailSlot is where the probe for id starts in an index of mask+1 slots: the
// top bits of a Fibonacci hash, which spreads ids numbered one apart as well
// as hashed ones.
func tailSlot(id bitvec.UserID, mask int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> (64 - bits.Len(uint(mask))))
}

// indexTail enters tail record off in the index.
func (c *column) indexTail(off int) {
	mask := len(c.index) - 1
	h := tailSlot(c.tailIDs[off], mask)
	for c.index[h] != 0 {
		h = (h + 1) & mask
	}
	c.index[h] = uint32(off + 1)
}

// reindex rebuilds the index over the tail in size slots.
func (c *column) reindex(size int) {
	c.index = make([]uint32, size)
	for off := range c.tailIDs {
		c.indexTail(off)
	}
}

// sketch returns the sketch of the record at index i, as find numbers them.
func (c *column) sketch(i int) Sketch {
	if n := c.ids.Len(); i >= n {
		return c.tailKeys.Sketch(i - n)
	}
	return c.keys.Sketch(i)
}

// insert appends a record whose id the column does not hold.
func (c *column) insert(id bitvec.UserID, word uint64) {
	if len(c.tailIDs) >= tailLimit(c.ids.Len()) {
		c.fold()
	}
	switch {
	case c.index == nil:
		c.tailIDs, c.tailKeys = make([]bitvec.UserID, 0, tailFloor), MakeWords(c.keys.Shape(), 0, tailFloor)
		c.index = make([]uint32, 2*tailFloor)
	case 2*(len(c.tailIDs)+1) > len(c.index):
		c.reindex(2 * len(c.index))
	}
	c.tailIDs = append(c.tailIDs, id)
	c.tailKeys = c.tailKeys.Append(word)
	c.indexTail(len(c.tailIDs) - 1)
}

// fold merges the tail into a fresh sorted run and drops it.
func (c *column) fold() {
	if len(c.tailIDs) == 0 {
		return
	}
	tailIDs, tailKeys := SortByID(c.tailIDs, c.tailKeys)
	c.ids, c.keys = mergeRuns(c.ids, c.keys, tailIDs, tailKeys)
	c.tailIDs, c.tailKeys, c.index = nil, Words{}, nil
}

// SortByID returns parallel id and key columns sorted by id, equal ids
// keeping their order: the ids in the array they were given or in a fresh
// one of the same length, the keys in place under 64 records and gathered
// into a fresh column of their shape otherwise.  A store sorts a full log
// — a few hundred thousand records — at every roll, restart and first read
// after an append, and the table sorts a column's tail at every fold.
func SortByID(ids []bitvec.UserID, keys Words) ([]bitvec.UserID, Words) {
	n := len(ids)
	if slices.IsSorted(ids) {
		// Users numbered as they enrol publish in id order more often than not.
		return ids, keys
	}
	if n < 64 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
				ids[j-1], ids[j] = ids[j], ids[j-1]
				keys.Swap(j-1, j)
			}
		}
		return ids, keys
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	ids, perm = sortIDs(ids, perm)
	sorted, b := MakeWords(keys.shape, n, n), keys.shape.Bits()
	bw := newBitWriter(sorted.w, 0)
	for _, i := range perm {
		bw.put(keys.raw(int(i)), b)
	}
	bw.flush()
	return ids, sorted
}

// sortIDs sorts ids, equal ids keeping their order, and carries at beside
// them — at[j] moves with ids[j] — in the arrays it was given or in fresh
// ones of the same length: an insertion sort under 64 ids, and otherwise a
// least-significant-byte radix sort over the id bytes that differ at all,
// a quarter of the cost of ingest under sort.Sort: what makes the linear
// sort worth its thirty lines.
func sortIDs(ids []bitvec.UserID, at []int32) ([]bitvec.UserID, []int32) {
	n := len(ids)
	if n < 64 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
				ids[j-1], ids[j] = ids[j], ids[j-1]
				at[j-1], at[j] = at[j], at[j-1]
			}
		}
		return ids, at
	}
	// One pass counts every digit; a digit all ids share needs no pass.
	var counts [8][256]int
	for _, id := range ids {
		for d := range counts {
			counts[d][byte(id>>(8*d))]++
		}
	}
	dstIDs, dstAt := make([]bitvec.UserID, n), make([]int32, n)
	for d := range counts {
		next, shift := &counts[d], 8*d
		if next[byte(ids[0]>>shift)] == n {
			continue
		}
		pos := 0
		for b, c := range next {
			next[b], pos = pos, pos+c
		}
		for i, id := range ids {
			b := byte(id >> shift)
			dstIDs[next[b]], dstAt[next[b]] = id, at[i]
			next[b]++
		}
		ids, dstIDs, at, dstAt = dstIDs, ids, dstAt, at
	}
	return ids, at
}

// mergeRuns merges a sorted run and sorted ids into a fresh run sized to
// what it holds, first record wins: an id of b already in a, or repeated
// within b, is dropped.  The keys of both are of one length.  Stretches of
// a between two ids of b move whole — as bytes, where they cover whole
// blocks of a and land on a block boundary, which is everything but a's
// last block when b's users enrolled after a's, and wherever they stand in
// a raw block (IDBuilder.AppendIDs).
func mergeRuns(a IDs, aKeys Words, b []bitvec.UserID, bKeys Words) (IDs, Words) {
	n := a.Len() + len(b)
	var ids IDBuilder
	// b is taken to code as a does — the column's users enrolled the same
	// way — plus a block's fixed bytes.
	ids.Grow(n, a.Bytes()+(a.Bytes()*len(b)+a.Len())/(a.Len()+1)+2*len(b)/IDBlockLen+9)
	shape := aKeys.Shape()
	if aKeys.Len() == 0 {
		shape = bKeys.Shape()
	}
	keys := MakeWords(shape, 0, n)
	var cur IDCursor
	cur.Reset(a)
	i := 0
	for j, id := range b {
		from := i
		var held bool // a already holds id
		i, held = cur.upTo(i, id)
		ids.AppendIDs(&cur, from, i)
		keys.appendRange(&aKeys, from, i)
		if held || (j > 0 && b[j-1] == id) {
			continue
		}
		ids.Append(id)
		keys.appendRange(&bKeys, j, j+1)
	}
	ids.AppendIDs(&cur, i, a.Len())
	keys.appendRange(&aKeys, i, a.Len())
	return ids.IDs(), keys
}

// loadMergeRatio is how many stored records a sorted run being landed may
// copy per record of its own.  A merge costs 3–4 ns per record of the
// column it rebuilds, even over hashed ids (table-write-then-read: 105–145
// µs for 32 records onto 35k, the 32 tail inserts included); the tail
// costs 340–380 ns per record, an index insert and a share of a later fold
// (table-ingest).  The two meet where a run of m records lands on a column
// of ≈ 85·m to 125·m, and a merge leaves no tail behind — a tail record
// holds ≈ 20 B of heap, a run record of fleet-shaped ids ≈ 3.4 — so the
// ratio sits in that range, at a round 100.  It must stay at 44 or more
// for a bulk import to merge: an 8192-record chunk over ten subsets is
// ≈ 820 records a subset, landing on columns of up to 36k.
const loadMergeRatio = 100

// loadRun adds a run of records for the column's subset, first record
// wins, and keeps ids and keys from here on.  The store replays (subset,
// user)-ordered runs: onto an empty column one becomes the column's run as
// it is, with no copy; otherwise it lands as land lands a batch.
func (c *column) loadRun(ids IDs, keys Words) {
	if ids.Len() == 0 {
		return
	}
	if c.len() == 0 {
		c.gen++
		c.ids, c.keys = ids, keys
		return
	}
	c.land(ids.AppendTo(nil), keys)
}

// land adds records for the column's subset — ids strictly ascending, keys
// beside them and sized to them — first record wins, as one write: onto an
// empty column they become its run, onto a warm one they land by one linear
// merge that leaves no tail, and a run too short to pay for a merge goes
// through the tail record by record.
func (c *column) land(ids []bitvec.UserID, keys Words) {
	c.gen++
	switch {
	case c.len() == 0:
		c.ids, c.keys = MakeIDs(ids), keys
	case len(ids)*loadMergeRatio >= c.len():
		c.fold()
		c.ids, c.keys = mergeRuns(c.ids, c.keys, ids, keys)
	default:
		for i, id := range ids {
			if _, dup := c.find(id); !dup {
				c.insert(id, keys.At(i))
			}
		}
	}
}

// view returns the sorted run; the tail must have been folded.
func (c *column) view() View {
	return View{subset: c.subset, gen: c.gen, ids: c.ids, keys: c.keys}
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

// ErrConflict refuses a second, different sketch for a (user, subset) pair
// the table holds: each additional sketch would spend more of the user's
// privacy budget (Corollary 3.4), so it is refused rather than silently
// overwriting.
var ErrConflict = errors.New("sketch: conflicting sketch")

// ErrForeignLength refuses a sketch whose length is not its subset's: a
// deployment fixes one ℓ (Lemma 3.1), and a column holds one length.
var ErrForeignLength = errors.New("sketch: foreign sketch length")

// conflict is the ErrConflict refusal of p.
func conflict(p *Published) error {
	return fmt.Errorf("%w: user %v already published a sketch for subset %v", ErrConflict, p.ID, p.Subset)
}

// foreignLength is the ErrForeignLength refusal of user id's sketch of the
// given length for subset b, whose sketches have another.
func foreignLength(id bitvec.UserID, b bitvec.Subset, length, want int) error {
	return fmt.Errorf("%w: user %v's sketch for subset %v has ℓ = %d, the subset's have ℓ = %d", ErrForeignLength, id, b, length, want)
}

// Add inserts a published sketch.  Re-publishing for the same (user, subset)
// pair is rejected with ErrConflict, the identical sketch included: Add is
// the strict form of AddNew.
func (t *Table) Add(p Published) error {
	_, added, err := t.AddNew(&p)
	if err == nil && !added {
		err = conflict(&p)
	}
	return err
}

// AddNew inserts p unless its (user, subset) pair already holds a sketch,
// in which case the existing sketch is returned with added=false and NO
// error: the caller decides whether the duplicate is an idempotent
// re-publish or a budget violation.  A sketch whose length is not its
// subset's is refused with ErrForeignLength.
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
	if err := c.admits(p.ID, p.S.Length); err != nil {
		return Sketch{}, false, err
	}
	if i, dup := c.find(p.ID); dup {
		return c.sketch(i), false, nil
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
// a second publish.  It costs one column lookup, and no copy at all or one
// linear merge rather than an index insert per record — unless the run is
// shorter than a 100th of the column (loadMergeRatio), which lands through
// the tail as a batch that short does (Land).  A run of another length than
// the subset's loads nothing and is refused with ErrForeignLength.
// The table takes ownership of the run's columns — a run onto an empty
// subset becomes the subset's column as it is, with no copy — so a caller
// that goes on writing to them loads a Clone.
func (t *Table) LoadRun(r Run) error {
	if r.IDs.Len() != r.Keys.Len() {
		return fmt.Errorf("sketch: run of %d ids and %d sketches", r.IDs.Len(), r.Keys.Len())
	}
	if r.Len() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.columnFor(r.Subset)
	if err := c.admits(r.IDs.At(0), int(r.Keys.Shape())); err != nil {
		return err
	}
	c.loadRun(r.IDs, r.Keys)
	return nil
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
	return c.sketch(i), true
}

// View returns the records of subset b, sorted by user id, together with
// the write generation they correspond to.  The pair is read under one
// lock, so a bitmap computed over the view and cached under the generation
// can never be popcounted against another record set: every write — Add,
// AddNew, Land, LoadRun — bumps the generation.  A stable subset hands out
// the same columns to every reader; the first read after a write folds the
// pending inserts in, a linear merge.
func (t *Table) View(b bitvec.Subset) (View, uint64) {
	v := t.Views([]bitvec.Subset{b}, false)[0]
	return v, v.gen
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
		return c.len()
	}
	return 0
}

// Subsets returns the distinct subsets present, sorted by their canonical
// tag so the order is deterministic.
func (t *Table) Subsets() []bitvec.Subset {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cols := t.sortedColumns()
	out := make([]bitvec.Subset, len(cols))
	for i, c := range cols {
		out[i] = c.subset
	}
	return out
}

// sortedColumns returns the columns that hold records, sorted by their
// subset's canonical tag.  The caller holds the lock.
func (t *Table) sortedColumns() []*column {
	keys := make([]string, 0, len(t.cols))
	for k, c := range t.cols {
		if c.len() > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*column, len(keys))
	for i, k := range keys {
		out[i] = t.cols[k]
	}
	return out
}

// Views returns the views of the listed subsets, in the order listed, and
// after them — with all set — of every subset that holds records, in
// Subsets order and whether listed or not: how a total is counted in the
// same state as everything else.  They are cut from ONE state of the table:
// the columns are read under a single lock, so no write falls between two
// of them and a user a writer adds to A and then B is never seen in B
// without A.  The views are the columns themselves (see View), not copies;
// a subset the table does not hold reads as an empty View of that subset at
// generation 0.  When a column has pending inserts that lock is the write
// lock and every such column is folded inside it — ingest waits for all of
// them at once, where reading the subsets one by one made it wait for each.
func (t *Table) Views(subsets []bitvec.Subset, all bool) []View {
	t.mu.RLock()
	views, ok := t.views(subsets, all, false)
	t.mu.RUnlock()
	if ok {
		return views
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	views, _ = t.views(subsets, all, true)
	return views
}

// views is Views under the lock the caller holds.  With fold set — under
// the write lock — pending inserts are folded in first; without it, a
// column that has any stops the cut and ok is false.
func (t *Table) views(subsets []bitvec.Subset, all, fold bool) (views []View, ok bool) {
	var every []*column
	if all {
		every = t.sortedColumns()
	}
	views = make([]View, len(subsets)+len(every))
	for i := range views {
		var c *column
		if i < len(subsets) {
			c = t.lookup(subsets[i])
		} else {
			c = every[i-len(subsets)]
		}
		if c == nil {
			views[i] = View{subset: subsets[i]}
			continue
		}
		if fold {
			c.fold()
		}
		if len(c.tailIDs) > 0 {
			return nil, false
		}
		views[i] = c.view()
	}
	return views, true
}

// Len returns the total number of stored sketches across all subsets.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, c := range t.cols {
		n += c.len()
	}
	return n
}
