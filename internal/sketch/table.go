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
// apart from it, the recent inserts as a short stack of smaller sorted
// runs coded the same way.  A read folds the stack into a fresh run and
// hands the run itself out as an immutable
// View, so the Algorithm 2 record loop walks contiguous memory,
// allocation-free, while ingestion proceeds — and a subset that is only
// read holds its ids as the differences between them (a bit or two for ids
// numbered as users enrol), its sketches' keys in their own ℓ bits
// (9 bits for a 9-bit sketch, the length written once) and nothing else.
// Columns whose runs hold the same users hold one IDs between them: the
// ten prefix subsets of a field (Section 4.1) that every user publishes
// cost one id column, not ten (see column.setRun).
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

// Merge merges runs of one sketch length, the ids of each strictly
// ascending, into a fresh run: their ids ascending, an id that several of
// them hold taken with its key from the first listed.  The run shares
// nothing with theirs, is sized to what it holds and codes its ids in the
// bytes MakeIDs codes them in.  It is the one merge of id columns: a table
// column's stack, its fold and its loads, and a store's replay, compaction
// and conversion all come here.
//
// Each run's cursor waits in a heap ordered by (next id, place in the
// list).  The least gives up in one step its whole stretch below the next
// least's id — as bytes where the stretch covers whole blocks on a block
// boundary or lies in a raw block (IDBuilder.appendIDs), its keys 64 bits
// at a time — so runs that follow one another, as those of users numbered
// as they enrol do, move whole; a cursor at an id already taken skips past
// it.
func Merge(parts []Run) (IDs, Words) {
	total, size, shape := 0, 0, Shape(0)
	for p := range parts {
		if n := parts[p].Len(); n > 0 {
			total, size, shape = total+n, size+parts[p].IDs.Bytes(), parts[p].Keys.Shape()
		}
	}
	var ids IDBuilder
	ids.Grow(total, size)
	keys := MakeWords(shape, 0, total)
	// A column's fold merges its run, its pending runs and level 0: a few
	// parts, whose cursors need no allocation.
	var curBuf [16]idCursor
	var headBuf [16]mergeHead
	curs, heap := curBuf[:], headBuf[:0]
	if len(parts) > len(curBuf) {
		curs, heap = make([]idCursor, len(parts)), make([]mergeHead, 0, len(parts))
	}
	for p := range parts {
		if n := parts[p].Len(); n > 0 {
			curs[p].reset(parts[p].IDs)
			heap = append(heap, mergeHead{id: curs[p].at(0), part: p, end: n})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for len(heap) > 0 {
		top := &heap[0]
		cur, from, to := &curs[top.part], top.pos, top.end
		switch {
		case ids.Len() > 0 && top.id <= ids.last:
			// An earlier part gave this id.
			to, _ = cur.upTo(from, ids.last)
			from = to
		case len(heap) > 1:
			next := heap[1].id
			if len(heap) > 2 {
				next = min(next, heap[2].id)
			}
			// The first id — next itself only there, where the heap's order
			// says no earlier part holds it — and those after it below next.
			// Parts that interleave, as hashed ids and a store's shards do,
			// mostly give up the first alone.
			if to = from + 1; to < top.end && cur.at(to) < next {
				var hit bool
				if to, hit = cur.upTo(to, next); hit {
					to--
				}
			}
		}
		if to == from+1 {
			// One id: top.id.
			ids.Append(top.id)
			putBits(keys.w, keys.grow(1), parts[top.part].Keys.raw(from), shape.Bits())
		} else {
			ids.appendIDs(cur, from, to)
			keys.appendRange(&parts[top.part].Keys, from, to)
		}
		if to == top.end {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		} else {
			top.id, top.pos = cur.at(to), to
		}
		siftDown(heap, 0)
	}
	return ids.IDs(), keys
}

// mergeHead is a Merge part's cursor: its next id, where that stands and
// where the part ends.
type mergeHead struct {
	id       bitvec.UserID
	part     int // the part's place in the list
	pos, end int
}

// siftDown restores the order of the heap below i, least (id, part) first.
func siftDown(heap []mergeHead, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
			if h, l := heap[c], heap[least]; h.id < l.id || h.id == l.id && h.part < l.part {
				least = c
			}
		}
		if least == i {
			return
		}
		heap[i], heap[least] = heap[least], heap[i]
		i = least
	}
}

// column holds one subset's records in parts that never share an id.
// ids and keys are the id-sorted run: sized exactly, and never written
// once set — views alias them, so a fold or a load builds new arrays.
// The records written since the run was built are pending, in parts no
// view reaches, until a fold merges them into a fresh run: a stack of
// sorted runs coded as the run is, immutable like it, and on top
// of them level 0, at most level0Len raw ids with their keys beside them
// and kept in order, its arrays made at their full room once a fold cycle.
// Every part holds its sketches at the column's one length (shape).
type column struct {
	subset bitvec.Subset
	// peers is the table's columns, this one among them: where a rebuilt
	// run looks for an id column to share (setRun).
	peers map[string]*column
	shape Shape // the length the column's sketches share, 0 before any
	ids   IDs
	keys  Words
	// deltas are the pending runs, longer ones below (push).
	deltas []Run
	// Level 0: ids and the keys their users published, both as they
	// arrived, and l0Order, the places of the ids in ascending order, so
	// that an insert moves a byte a record behind its place rather than
	// the ids and keys themselves.
	l0      []bitvec.UserID
	l0Keys  []uint32
	l0Order []uint8
	pending int // the records of deltas and level 0
	// filter holds every pending id (enter), so that asking the pending
	// parts for an id they do not hold — a new user's, what ingest mostly
	// asks — reads one word of it in place of a search per part.
	filter bloom
	// gen counts the writes to the column.  A cached evaluation bitmap
	// keyed by (gen, record count) is valid exactly as long as no write
	// touched the subset; folding does not bump it, the record set is the
	// same.
	gen uint64
}

// pendingLimit is how many records may pend beside an n-record run before
// a write folds them in: a fixed fraction of the run, so folding costs
// amortised O(1) copies per insert, plus a floor, level 0's room, that
// spares small columns a fold per handful of inserts.
func pendingLimit(n int) int { return n/8 + level0Len }

// level0Len is the most records level 0 holds: an insert moves up to that
// many bytes of its order to make its place, and a full level 0 is coded
// as a pending run (spill).
const level0Len = 256

// len returns the number of records the column holds.
func (c *column) len() int { return c.ids.Len() + c.pending }

// admits returns nil if the column takes sketches of the given length — its
// own, or any while it holds none — and the ErrForeignLength refusal of
// user id's otherwise.
func (c *column) admits(id bitvec.UserID, length int) error {
	if c.len() > 0 && c.shape != Shape(length) {
		return foreignLength(id, c.subset, length, int(c.shape))
	}
	return nil
}

// get returns the sketch the column holds for user id, if any: the run is
// searched, and the pending parts only where the filter does not rule id
// out.
func (c *column) get(id bitvec.UserID) (Sketch, bool) {
	if i, ok := c.ids.Find(id); ok {
		return c.keys.Sketch(i), true
	}
	if c.pending == 0 || !c.filter.has(id) {
		return Sketch{}, false
	}
	for _, d := range c.deltas {
		if i, ok := d.IDs.Find(id); ok {
			return d.Keys.Sketch(i), true
		}
	}
	if i := c.level0Search(0, len(c.l0), id); i < len(c.l0) && c.level0ID(i) == id {
		return c.level0Sketch(i), true
	}
	return Sketch{}, false
}

// level0ID returns level 0's i-th least id.
func (c *column) level0ID(i int) bitvec.UserID { return c.l0[c.l0Order[i]] }

// level0Sketch returns the sketch of level 0's i-th least id.
func (c *column) level0Sketch(i int) Sketch {
	return Sketch{Key: uint64(c.l0Keys[c.l0Order[i]]), Length: int(c.shape)}
}

// level0Search returns where id stands, or would, in level 0's order
// between lo and hi: a binary search whose steps compile to conditional
// moves, since a hashed id is as likely to sort anywhere.
func (c *column) level0Search(lo, hi int, id bitvec.UserID) int {
	order := c.l0Order[lo:hi]
	if len(order) == 0 {
		return lo
	}
	base := 0
	for n := len(order); n > 1; n -= n / 2 {
		if c.l0[order[base+n/2]] < id {
			base += n / 2
		}
	}
	if c.l0[order[base]] < id {
		base++
	}
	return lo + base
}

// walk calls found with the index in ids — ascending, repeats side by side
// — of each id the column holds, its first if it repeats, and the sketch
// held for it.  Each part is walked once as the ids ascend: the run and
// each pending run by a cursor (idCursor.upTo), level 0 by a search from
// where the last one stopped; a pending part is asked only for the ids the
// filter does not rule out.
func (c *column) walk(ids []bitvec.UserID, found func(j int, have Sketch)) {
	var cur idCursor
	for part := -1; part < len(c.deltas); part++ {
		run, keys := c.ids, c.keys
		if part >= 0 {
			run, keys = c.deltas[part].IDs, c.deltas[part].Keys
		}
		cur.reset(run)
		pos := 0 // the first record of the part past the ids asked
		for j, id := range ids {
			if (j > 0 && ids[j-1] == id) || (part >= 0 && !c.filter.has(id)) {
				continue
			}
			var held bool
			if pos, held = cur.upTo(pos, id); held {
				found(j, keys.Sketch(pos-1))
			}
		}
	}
	if len(c.l0) == 0 {
		return
	}
	for j, pos := 0, 0; j < len(ids); j++ {
		if id := ids[j]; (j == 0 || ids[j-1] != id) && c.filter.has(id) {
			if pos = c.level0Search(pos, len(c.l0), id); pos < len(c.l0) && c.level0ID(pos) == id {
				found(j, c.level0Sketch(pos))
			}
		}
	}
}

// open readies the pending parts for a first record: level 0's arrays at
// their full room, and a filter with room for as many ids.
func (c *column) open() {
	if c.l0 == nil {
		c.l0, c.l0Keys, c.l0Order = make([]bitvec.UserID, 0, level0Len), make([]uint32, 0, level0Len), make([]uint8, 0, level0Len)
		c.filter = newBloom(level0Len)
	}
}

// enter enters ids, just added to the pending parts, in the filter — which
// is rebuilt over every pending id at twice their number once they outgrow
// it, so that it holds 8 to 16 bits an id, and a column with a few records
// pending pays a few hundred bytes for it.
func (c *column) enter(ids ...bitvec.UserID) {
	if c.pending <= len(c.filter)*64/bloomBits {
		for _, id := range ids {
			c.filter.add(id)
		}
		return
	}
	c.filter = newBloom(2 * c.pending)
	var buf [IDBlockLen]bitvec.UserID
	for _, d := range c.deltas {
		for k := range d.IDs.Blocks() {
			for _, id := range d.IDs.Block(k, &buf) {
				c.filter.add(id)
			}
		}
	}
	for _, id := range c.l0 {
		c.filter.add(id)
	}
}

// insert adds a record whose id the column does not hold to level 0,
// spilling a full level 0 onto the stack first.  An id past level 0's
// last, which is how users numbered as they enrol arrive, moves nothing.
func (c *column) insert(id bitvec.UserID, word uint64) {
	c.shape = Shape(word & 31)
	c.open()
	if len(c.l0) == level0Len {
		c.spill()
	}
	i := len(c.l0)
	if i > 0 && c.level0ID(i-1) > id {
		i = c.level0Search(0, i, id)
	}
	c.l0Order = slices.Insert(c.l0Order, i, uint8(len(c.l0)))
	c.l0, c.l0Keys = append(c.l0, id), append(c.l0Keys, uint32(word>>5))
	c.pending++
	c.enter(id)
	c.settle()
}

// unheld drops the ids the column holds from a sorted run, and their keys
// beside them, first record wins.
func (c *column) unheld(ids []bitvec.UserID, keys Words) ([]bitvec.UserID, Words) {
	m := 0
	for i, id := range ids {
		if _, held := c.get(id); !held {
			ids[m] = id
			keys.setRaw(m, keys.raw(i))
			m++
		}
	}
	return ids[:m], keys.Slice(0, m)
}

// landPending lands a sorted run of ids the column does not hold — ids
// strictly ascending, keys beside them and sized to them, both the
// column's to keep — among the pending records: they merge into level 0 in
// one pass from the top down.  Where they would overfill it level 0 is
// spilled first, and a run longer than level 0 goes on the stack as a run
// of its own.
func (c *column) landPending(ids []bitvec.UserID, keys Words) {
	m := len(ids)
	if m == 0 {
		return
	}
	c.open()
	if len(c.l0)+m > level0Len {
		c.spill()
	}
	if m > level0Len {
		c.push(Run{IDs: MakeIDs(ids), Keys: keys})
	} else {
		// From the top down, the ids of level 0 above each new one move up
		// past it in one copy, and it takes its place below them.
		n := len(c.l0)
		c.l0Order = c.l0Order[:n+m]
		for i, j := n, m-1; j >= 0; j-- {
			at := c.level0Search(0, i, ids[j])
			copy(c.l0Order[at+j+1:i+j+1], c.l0Order[at:i])
			c.l0Order[at+j], i = uint8(n+j), at
		}
		c.l0 = append(c.l0, ids...)
		for j := range ids {
			c.l0Keys = append(c.l0Keys, uint32(keys.raw(j)))
		}
	}
	c.pending += m
	c.enter(ids...)
	c.settle()
}

// settle folds the pending records in once they reach pendingLimit.
func (c *column) settle() {
	if c.pending >= pendingLimit(c.ids.Len()) {
		c.fold()
	}
}

// level0Sorted appends level 0's ids, ascending, to ids and returns them
// with their keys beside them.
func (c *column) level0Sorted(ids []bitvec.UserID) ([]bitvec.UserID, Words) {
	keys, b := MakeWords(c.shape, len(c.l0), len(c.l0)), c.shape.Bits()
	bw := newBitWriter(keys.w, 0)
	for _, at := range c.l0Order {
		ids = append(ids, c.l0[at])
		bw.put(uint64(c.l0Keys[at]), b)
	}
	bw.flush()
	return ids, keys
}

// spill moves level 0's records onto the stack as a run and empties it.
func (c *column) spill() {
	if len(c.l0) > 0 {
		var buf [level0Len]bitvec.UserID
		ids, keys := c.level0Sorted(buf[:0])
		c.push(Run{IDs: MakeIDs(ids), Keys: keys})
		c.l0, c.l0Keys, c.l0Order = c.l0[:0], c.l0Keys[:0], c.l0Order[:0]
	}
}

// push puts a run of pending records on the stack and merges the top
// stackFanIn runs into one while they share a size class (sizeClass), as
// the levels of a tiered log-structured merge tree do (O'Neil et al.,
// Acta Informatica 1996).
// A run then merges once each time it grows stackFanIn-fold, so a record
// is copied about log₈(pending/256) times before a fold, and the stack
// holds fewer than stackFanIn runs a class.
func (c *column) push(r Run) {
	c.deltas = append(c.deltas, r)
	for n := len(c.deltas); n >= stackFanIn && sizeClass(c.deltas[n-stackFanIn]) <= sizeClass(c.deltas[n-1]); n = len(c.deltas) {
		ids, keys := Merge(c.deltas[n-stackFanIn:])
		clear(c.deltas[n-stackFanIn:])
		c.deltas = append(c.deltas[:n-stackFanIn], Run{IDs: ids, Keys: keys})
	}
}

// stackFanIn is how many runs of a size class a column's stack merges
// into one.
const stackFanIn = 8

// sizeClass is the size class of a pending run, ⌊log₈(len/level0Len)⌋:
// class c holds runs of level0Len·8ᶜ up to level0Len·8ᶜ⁺¹ records.
func sizeClass(r Run) int { return (bits.Len(uint(r.Len()/level0Len)) - 1) / 3 }

// fold merges the pending records into a fresh run and drops their parts.
func (c *column) fold() {
	if c.pending > 0 {
		c.merge()
	}
}

// merge merges the run, the pending parts — the stack bottom first, then
// level 0, coded as one more run — and the runs more, first record wins,
// into a fresh run in one pass, and drops the pending parts.
func (c *column) merge(more ...Run) {
	parts := append([]Run{{IDs: c.ids, Keys: c.keys}}, c.deltas...)
	if len(c.l0) > 0 {
		var buf [level0Len]bitvec.UserID
		ids, keys := c.level0Sorted(buf[:0])
		parts = append(parts, Run{IDs: MakeIDs(ids), Keys: keys})
	}
	c.setRun(Merge(append(parts, more...)))
	c.deltas, c.l0, c.l0Keys, c.l0Order, c.filter, c.pending = nil, nil, nil, nil, nil, 0
}

// A bloom is a Bloom filter over user ids (Bloom, "Space/time trade-offs
// in hash coding with allowable errors", CACM 1970), blocked: an id sets
// three bits of one 64-bit word, picked by the top bits of a Fibonacci
// hash, which spreads ids numbered one apart as well as hashed ones.  At
// bloomBits bits an id it answers "maybe" for ≈ 3 % of the ids it was not
// given once full, and "no" for the rest, reading one word.
type bloom []uint64

// bloomBits is how many bits of a filter an id it holds is given.
const bloomBits = 8

// newBloom returns a filter sized for n ids.
func newBloom(n int) bloom { return make(bloom, (n*bloomBits+63)/64) }

// probe returns the word of f id lands in and the bits it sets there.
func (f bloom) probe(id bitvec.UserID) (int, uint64) {
	w, r := bits.Mul64(uint64(id)*0x9E3779B97F4A7C15, uint64(len(f)))
	return int(w), 1<<(r>>58) | 1<<(r>>52&63) | 1<<(r>>46&63)
}

// add enters id.
func (f bloom) add(id bitvec.UserID) {
	w, m := f.probe(id)
	f[w] |= m
}

// has reports whether id may have been entered: false says it was not.
func (f bloom) has(id bitvec.UserID) bool {
	w, m := f.probe(id)
	return f[w]&m == m
}

// setRun makes ids and keys the column's run — unless another column's run
// holds the same ids, whose IDs the column then takes in place of its own:
// every user publishes every subset a deployment configures (Algorithm 1),
// so a node's columns mostly hold one set of users, and it is coded once.
// An IDs is never written once built — views alias it, Run.Clone shares
// it — so sharing one needs no copy on write; the column's own becomes
// garbage.  A column that cannot match is told apart by its record count
// and last id, reading no bytes; one that can is compared byte for byte,
// the coding being canonical.  Every write that rebuilds a run comes here:
// a fold, a merge, a load.
func (c *column) setRun(ids IDs, keys Words) {
	c.ids, c.keys = ids, keys
	for _, o := range c.peers {
		if o != c && ids.equal(o.ids) {
			c.ids = o.ids
			return
		}
	}
}

// SortByID returns parallel id and key columns sorted by id, equal ids
// keeping their order: the ids in the array they were given or in a fresh
// one of the same length, the keys in place under 64 records and gathered
// into a fresh column of their shape otherwise.  A store sorts a full log
// — a few hundred thousand records — at every roll, restart and first read
// after an append.
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

// loadMergeRatio is how many stored records a sorted run being landed may
// copy per record of its own.  A merge costs 5.5–6.5 ns per record of the
// column it rebuilds on a 2-core box, even over hashed ids
// (table-write-then-read: 190–230 µs for 32 records onto 35k, the 32
// pending inserts included); a pending record costs 550–650 ns on the same
// box, its insert and its share of the stack's merges and of a later fold
// (table-ingest).  The two meet where a run of m records lands on a column
// of ≈ 85·m to 120·m, and a merge leaves nothing pending — a pending
// record holds about what a run record does, but level 0's arrays stay
// until the next fold — so the ratio sits in that range, at a round 100.
// It must stay at 44 or more for a bulk import to merge: an 8192-record
// chunk over ten subsets is ≈ 820 records a subset, landing on columns of
// up to 36k.
const loadMergeRatio = 100

// land adds records for the column's subset — ids strictly ascending,
// given as a column or, raw, as a slice, keys beside them and sized to
// them, all the column's to keep — first record wins, as one write: onto
// an empty column they become its run as they are, with no copy; onto a
// warm one they merge with the run and the pending parts in one pass that
// leaves nothing pending; and a run too short to pay for a merge merges
// among the pending records (landPending), the ids the column holds
// dropped first unless probed says it holds none of them: a batch Probe
// admitted, whose caller kept other writers off its pairs until it lands.
func (c *column) land(ids IDs, raw []bitvec.UserID, keys Words, probed bool) {
	c.gen++
	c.shape = keys.Shape()
	if keys.Len()*loadMergeRatio < c.len() {
		if raw == nil {
			raw = ids.AppendTo(nil)
		}
		if !probed {
			raw, keys = c.unheld(raw, keys)
		}
		c.landPending(raw, keys)
		return
	}
	if raw != nil {
		ids = MakeIDs(raw)
	}
	if c.len() == 0 {
		c.setRun(ids, keys)
	} else {
		c.merge(Run{IDs: ids, Keys: keys})
	}
}

// view returns the sorted run; the pending records must have been folded.
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
		c = &column{subset: b, peers: t.cols}
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
	if s, dup := c.get(p.ID); dup {
		return s, false, nil
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
// linear merge — unless the run is shorter than a 100th of the column
// (loadMergeRatio), which merges among the column's pending records as a
// batch that short does (Land).  A run of another length than
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
	c.land(r.IDs, nil, r.Keys, false)
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
	return c.get(id)
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
		if c.pending > 0 {
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
