package sketch

import (
	"fmt"
	"slices"

	"sketchprivacy/internal/bitvec"
)

// A Batch is a batch of published records probed against a table: the ones
// the table admits as new, grouped by subset and sorted by id, ready to land
// as runs.  Table.Probe makes one and Table.Land lands it; between the two a
// caller may withdraw records (Drop), so that what lands is exactly what a
// store made durable, and nothing of a batch is visible before it lands.
type Batch struct {
	ps []Published
	// slot[i] is 1 + the group of record i while the record is admitted,
	// 0 once it is not.
	slot   []int32
	groups []batchGroup
	n      int // admitted records
}

// batchGroup is one subset's records of a batch.
type batchGroup struct {
	// subset is the table's own value for the subset if it held the
	// subset when probed, the first record's otherwise.
	subset bitvec.Subset
	first  int // the input index of its first record
	n      int // the group's records, before the cut
	ids    []bitvec.UserID
	at     []int32 // the input index of each id
}

// Len returns how many records the batch admits.
func (b *Batch) Len() int { return b.n }

// Records returns the admitted records in the batch's group order — subset
// by subset in order of first appearance, each subset's ids ascending —
// each carrying the table's own Subset value for its subset (see AddNew):
// what a store is handed, so the records it holds share one Subset per
// column and arrive as the runs they are stored as.
func (b *Batch) Records() []Published {
	out := make([]Published, 0, b.n)
	b.admitted(func(g, i int) {
		p := b.ps[i]
		p.Subset = b.groups[g].subset
		out = append(out, p)
	})
	return out
}

// Drop withdraws admitted records, named by their index in Records — a
// store's failed list — so they do not land.
func (b *Batch) Drop(failed []int) {
	if len(failed) == 0 {
		return
	}
	gone := make([]bool, b.n)
	for _, f := range failed {
		gone[f] = true
	}
	dropped, k := 0, 0
	b.admitted(func(_, i int) {
		if gone[k] {
			b.slot[i] = 0
			dropped++
		}
		k++
	})
	b.n -= dropped
}

// admitted calls fn with the group and the input index of each admitted
// record, in Records' order.
func (b *Batch) admitted(fn func(g, i int)) {
	for g := range b.groups {
		for _, i := range b.groups[g].at {
			if b.slot[i] != 0 {
				fn(g, int(i))
			}
		}
	}
}

// Probe reads a batch against the table, under its read lock, and returns
// the records the table admits as new, as AddNew would one by one in input
// order: a record whose (user, subset) pair the table — or an earlier record
// of the batch — already holds is not admitted.  Admission stops at the
// first record that is refused, and the error names that record: a sketch
// that is invalid, one for a pair that holds another (ErrConflict), or one
// whose length is not its subset's (ErrForeignLength) — the column's, or
// for a subset the table does not hold yet the length of the batch's first
// record for it.  Nothing is written: the admitted records land with Land,
// and until then the caller keeps other writers off their pairs.
//
// The records are grouped by subset and each group sorted by id — at once
// where the ids ascend — before the lock is taken, so a repeat is the
// record beside it and each column is asked once per distinct user, each
// of its parts walked by one cursor rather than searched per record
// (column.walk).
func (t *Table) Probe(ps []Published) (*Batch, error) {
	b := &Batch{ps: ps, slot: make([]int32, len(ps))}
	cut, err := len(ps), error(nil)
	// Each record's group, then each group's share of one id array, filled
	// in input order and sorted.
	var byTag map[string]int
	g := -1
	for i := range ps {
		p := &ps[i]
		if !p.S.Valid() {
			cut, err = i, fmt.Errorf("sketch: invalid sketch %v", p.S)
			break
		}
		g = b.groupOf(p.Subset, i, g, &byTag)
		if want := ps[b.groups[g].first].S.Length; p.S.Length != want {
			cut, err = i, foreignLength(p.ID, p.Subset, p.S.Length, want)
			break
		}
		b.groups[g].n++
		b.slot[i] = int32(g + 1)
	}
	ids, at := make([]bitvec.UserID, 0, cut), make([]int32, 0, cut)
	for g, off := 0, 0; g < len(b.groups); g++ {
		grp := &b.groups[g]
		grp.ids, grp.at = ids[off:off:off+grp.n], at[off:off:off+grp.n]
		off += grp.n
	}
	for i, s := range b.slot[:cut] {
		grp := &b.groups[s-1]
		grp.ids, grp.at = append(grp.ids, ps[i].ID), append(grp.at, int32(i))
	}
	for g := range b.groups {
		b.groups[g].sort()
	}

	t.mu.RLock()
	for g := range b.groups {
		grp := &b.groups[g]
		// withdraw takes back the records of the id at j from k on, and cuts
		// at the first whose sketch is not have, the one the pair holds.
		withdraw := func(j, k int, have Sketch) {
			for ; k < len(grp.ids) && grp.ids[k] == grp.ids[j]; k++ {
				i := int(grp.at[k])
				b.slot[i] = 0
				if ps[i].S != have && i < cut {
					cut, err = i, conflict(&ps[i])
				}
			}
		}
		if c := t.lookup(grp.subset); c != nil {
			grp.subset = c.subset
			if ferr := c.admits(ps[grp.first].ID, ps[grp.first].S.Length); ferr != nil && grp.first < cut {
				cut, err = grp.first, ferr
			}
			// Every record of a pair the table holds is withdrawn.
			c.walk(grp.ids, func(j int, have Sketch) { withdraw(j, j, have) })
		}
		// Of a pair it does not hold, the first record stands.
		for j, first := range grp.at {
			if (j == 0 || grp.ids[j-1] != grp.ids[j]) && b.slot[first] != 0 {
				withdraw(j, j+1, ps[first].S)
			}
		}
	}
	t.mu.RUnlock()

	// What the cut leaves out is not admitted either.
	clear(b.slot[cut:])
	for _, s := range b.slot[:cut] {
		if s != 0 {
			b.n++
		}
	}
	return b, err
}

// sort sorts the group's records by id, equal ids keeping their input
// order, the input indices carried beside them.
func (grp *batchGroup) sort() {
	if !slices.IsSorted(grp.ids) {
		grp.ids, grp.at = sortIDs(grp.ids, grp.at)
	}
}

// groupOf returns the group of subset s, adding one — first is the input
// index of its record — if the batch has none:
// the group of the record before (last) or the one after it are tried first
// — a batch is mostly subset by subset or user by user — and then the map
// of every group by tag, which is made when the batch reaches its second
// subset: a batch of one subset, a lone record's included, needs none.
func (b *Batch) groupOf(s bitvec.Subset, first, last int, byTag *map[string]int) int {
	for _, g := range [2]int{last, last + 1} {
		if g >= 0 && g < len(b.groups) && b.groups[g].subset.Equal(s) {
			return g
		}
	}
	switch len(b.groups) {
	case 0:
	case 1:
		// The batch's second subset (its first, the only group, was tried as
		// last): the tag index starts with the first.
		*byTag = map[string]int{b.groups[0].subset.Key(): 0}
	default:
		var buf [8 + 8*16]byte
		if g, ok := (*byTag)[string(s.AppendTag(buf[:0]))]; ok {
			return g
		}
	}
	if *byTag != nil {
		(*byTag)[s.Key()] = len(b.groups)
	}
	b.groups = append(b.groups, batchGroup{subset: s, first: first})
	return len(b.groups) - 1
}

// Land adds the batch's admitted records to the table, once, and returns
// how many it added: each subset's as one sorted run, the way LoadRun
// lands one (a run long enough for its column merges into the column's
// run and leaves nothing pending, a shorter one merges into level 0), and
// one generation bump per touched column, which retires its cached bitmaps
// and keep masks as an AddNew does.  What Probe admitted is not looked up
// again: the caller has kept other writers off the batch's pairs since.
func (t *Table) Land(b *Batch) int {
	type run struct {
		subset bitvec.Subset
		ids    []bitvec.UserID
		keys   Words
	}
	// The runs are built before the write lock is taken: each group's
	// admitted records, ascending, their keys at the group's one length.
	runs := make([]run, 0, len(b.groups))
	for g := range b.groups {
		grp := &b.groups[g]
		kept := 0
		for j, i := range grp.at {
			if b.slot[i] != 0 {
				grp.ids[kept], grp.at[kept] = grp.ids[j], i
				kept++
			}
		}
		if kept == 0 {
			continue
		}
		shape := Shape(b.ps[grp.first].S.Length)
		keys, bits := MakeWords(shape, kept, kept), shape.Bits()
		bw := newBitWriter(keys.w, 0)
		for _, i := range grp.at[:kept] {
			bw.put(b.ps[i].S.Key, bits)
		}
		bw.flush()
		runs = append(runs, run{grp.subset, grp.ids[:kept], keys})
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range runs {
		t.columnFor(r.subset).land(IDs{}, r.ids, r.keys, true)
	}
	return b.n
}
