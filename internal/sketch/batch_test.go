package sketch

import (
	"reflect"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
)

// TestTableProbeAdmitsInInputOrder pins Probe's admission against what
// AddNew one record at a time admits: an identical re-publish — of a held
// record or of one earlier in the batch — is skipped, and the first
// conflicting or invalid record, or the first of a foreign length — not its
// column's, or for a subset the table does not hold the length of the
// batch's first record for it — stops admission there, its error naming
// it, with what came before it still admitted.
func TestTableProbeAdmitsInInputOrder(t *testing.T) {
	b0, b1 := bitvec.MustSubset(0), bitvec.MustSubset(1, 2)
	pub := func(id bitvec.UserID, b bitvec.Subset, key uint64) Published {
		return Published{ID: id, Subset: b, S: Sketch{Key: key, Length: 4}}
	}
	long := func(p Published) Published { p.S.Length = 9; return p }
	for _, tc := range []struct {
		name  string
		batch []Published
		admit []bitvec.UserID // the admitted records' ids, in input order
		err   string
	}{
		{"all new", []Published{pub(5, b0, 1), pub(3, b1, 1), pub(4, b0, 2)}, []bitvec.UserID{5, 3, 4}, ""},
		{"an identical re-publish", []Published{pub(9, b0, 1), pub(1, b0, 7), pub(8, b0, 1)}, []bitvec.UserID{9, 8}, ""},
		{"an identical repeat in the batch", []Published{pub(9, b0, 1), pub(9, b0, 1), pub(9, b1, 2)}, []bitvec.UserID{9, 9}, ""},
		{"a conflict with the table", []Published{pub(9, b0, 1), pub(1, b0, 8), pub(8, b0, 1)}, []bitvec.UserID{9}, "user user-1 already published"},
		{"a conflict in the batch", []Published{pub(9, b0, 1), pub(8, b0, 1), pub(9, b0, 2), pub(7, b0, 1)}, []bitvec.UserID{9, 8}, "user user-9 already published"},
		{"the earlier of two refusals", []Published{pub(6, b0, 1), pub(6, b0, 3), pub(1, b0, 8), pub(2, b0, 99)}, []bitvec.UserID{6}, "user user-6 already published"},
		{"an invalid sketch", []Published{pub(6, b0, 1), pub(2, b0, 99), pub(1, b0, 8)}, []bitvec.UserID{6}, "invalid sketch"},
		{"a foreign length against the column", []Published{pub(6, b1, 1), pub(5, b0, 1), long(pub(2, b0, 3)), pub(3, b0, 1)}, []bitvec.UserID{6, 5}, "user user-2's sketch for subset {0} has ℓ = 9, the subset's have ℓ = 4"},
		{"a foreign length held by the column", []Published{pub(6, b0, 1), long(pub(1, b0, 7))}, []bitvec.UserID{6}, "foreign sketch length"},
		{"a foreign length in a fresh subset", []Published{long(pub(6, b1, 1)), long(pub(5, b1, 2)), pub(4, b1, 3), long(pub(3, b1, 4))}, []bitvec.UserID{6, 5}, "user user-4's sketch for subset {1,2} has ℓ = 4, the subset's have ℓ = 9"},
		{"a fresh subset's first record of a foreign length", []Published{pub(6, b1, 1), long(pub(5, b0, 1)), pub(4, b0, 1)}, []bitvec.UserID{6}, "user user-5's sketch"},
		{"the earlier of a conflict and a foreign length", []Published{pub(6, b0, 1), long(pub(4, b1, 1)), pub(1, b0, 8)}, []bitvec.UserID{6, 4}, "user user-1 already published"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewTable()
			if err := tab.Add(pub(1, b0, 7)); err != nil {
				t.Fatal(err)
			}
			b, err := tab.Probe(tc.batch)
			if (err == nil) != (tc.err == "") || (err != nil && !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("Probe = %v, want an error containing %q", err, tc.err)
			}
			var got []bitvec.UserID
			for _, p := range b.Records() {
				got = append(got, p.ID)
			}
			if len(got) != len(tc.admit) || b.Len() != len(tc.admit) {
				t.Fatalf("Probe admitted %v (Len %d), want %v", got, b.Len(), tc.admit)
			}
			for i := range got {
				if got[i] != tc.admit[i] {
					t.Fatalf("Probe admitted %v, want %v", got, tc.admit)
				}
			}
			if tab.Len() != 1 {
				t.Fatal("Probe wrote to the table")
			}
			if n := tab.Land(b); n != len(tc.admit) || tab.Len() != 1+n {
				t.Fatalf("Land added %d records, the table holds %d; want %d more than 1", n, tab.Len(), len(tc.admit))
			}
		})
	}
}

// TestTableLandDropsWithdrawnRecords: what Drop withdraws — a store's
// failed list, by index into Records — does not land, the rest does, and
// the records a store is handed carry the table's Subset value.
func TestTableLandDropsWithdrawnRecords(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(0, 2)
	if err := tab.Add(Published{ID: 100, Subset: b, S: Sketch{Key: 1, Length: 4}}); err != nil {
		t.Fatal(err)
	}
	own := tab.cols[b.Key()].subset
	var batch []Published
	for id := bitvec.UserID(1); id <= 6; id++ {
		batch = append(batch, Published{ID: id, Subset: bitvec.MustSubset(0, 2), S: Sketch{Key: uint64(id), Length: 4}})
	}
	bt, err := tab.Probe(batch)
	if err != nil {
		t.Fatal(err)
	}
	positions := func(b bitvec.Subset) uintptr { return reflect.ValueOf(b).Field(0).Pointer() }
	for _, p := range bt.Records() {
		if positions(p.Subset) != positions(own) {
			t.Fatal("a record handed to a store carries the caller's Subset, not the table's")
		}
	}
	bt.Drop([]int{1, 4})
	if n := tab.Land(bt); n != 4 {
		t.Fatalf("Land added %d records, want 4", n)
	}
	for id := bitvec.UserID(1); id <= 6; id++ {
		if _, ok := tab.Get(id, b); ok == (id == 2 || id == 5) {
			t.Fatalf("user %d: in the table = %v after records 2 and 5 were dropped", id, ok)
		}
	}
}

// TestTableLandLeavesNoTail: a bulk import's batches — 8192 records, user
// by user over ten subsets — merge into their columns, onto empty columns
// and onto columns of 35k alike, so after each no touched column holds a
// tail and the views are cut under the read lock alone; a generation moves
// once per batch a column is touched by.
func TestTableLandLeavesNoTail(t *testing.T) {
	subsets := make([]bitvec.Subset, 10)
	for i := range subsets {
		subsets[i] = bitvec.Range(0, i+1)
	}
	tab := NewTable()
	const users = 36_000
	var chunk []Published
	for i := 0; i < users*len(subsets); i += len(chunk) {
		chunk = chunk[:0]
		for j := i; j < min(i+8192, users*len(subsets)); j++ {
			u := j / len(subsets)
			id := bitvec.UserID(7<<40 | (1 + 3*u/2))
			chunk = append(chunk, Published{ID: id, Subset: subsets[j%len(subsets)], S: Sketch{Key: uint64(id) % 512, Length: 9}})
		}
		_, before := tab.View(subsets[0])
		b, err := tab.Probe(chunk)
		if err != nil || tab.Land(b) != len(chunk) {
			t.Fatalf("a batch of %d new records landed %d: %v", len(chunk), b.Len(), err)
		}
		if _, ok := tab.views(subsets, true, false); !ok {
			t.Fatalf("after the batch at record %d a column holds a tail: Views needs the write lock", i)
		}
		if _, after := tab.View(subsets[0]); after != before+1 {
			t.Fatalf("a batch moved the generation %d → %d, want one step", before, after)
		}
	}
	if tab.Len() != users*len(subsets) {
		t.Fatalf("the table holds %d records, want %d", tab.Len(), users*len(subsets))
	}
}
