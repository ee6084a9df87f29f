package main

import (
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
)

// The table kernels are sized like one node of the fleet benchmark: a
// 10-bit field's ten prefix subsets, about 35 000 users in each.
const (
	tableBenchUsers = 35_000
	// tableBenchFresh is how many users one write-then-read op publishes
	// before it reads: the mixed-fresh workload's batch.
	tableBenchFresh = 32
)

// tableBenchRecord fabricates user i's record for a subset.  The ids are
// scattered over the id space, as tenant-domain ids are, so inserts do not
// arrive in id order.
func tableBenchRecord(i int, subset bitvec.Subset) sketch.Published {
	id := uint64(i+1) * 0x9E3779B97F4A7C15
	return sketch.Published{ID: bitvec.UserID(id), Subset: subset, S: sketch.Sketch{Key: id >> 55, Length: 9}}
}

// tableBenchmarks measures the sketch table's write side, which the plan
// kernels (all reads over a finished table) do not: the per-record cost of
// ingest, in time and in allocated bytes, and the cost of a read that
// follows a burst of writes to the subset it reads.
func tableBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	subsets := query.FieldPrefixSubsets(bitvec.MustIntField(0, 10))
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"table-ingest", func(b *testing.B) {
			// One op = one record admitted, users publishing their ten
			// subsets in turn; a fresh table every 10 × 35k records, so
			// bytes/op is what a node's table allocates per record held
			// (columns, folds and index together).
			b.ReportAllocs()
			var tab *sketch.Table
			for i := 0; i < b.N; i++ {
				if i%(tableBenchUsers*len(subsets)) == 0 {
					tab = sketch.NewTable()
				}
				rec := tableBenchRecord(i/len(subsets)%tableBenchUsers, subsets[i%len(subsets)])
				if _, added, err := tab.AddNew(&rec); err != nil || !added {
					b.Fatalf("AddNew(%v) = added %v, %v", rec.ID, added, err)
				}
			}
		}},
		{"table-write-then-read", func(b *testing.B) {
			// One op = 32 new users published to a 35k-record subset, then
			// the subset read: every read meets pending writes, the
			// mixed-fresh pattern.  The table is rebuilt every 256 ops
			// (timer stopped) so the subset stays near its nominal size.
			subset := subsets[len(subsets)-1]
			base := sketch.Run{Subset: subset}
			for i := 0; i < tableBenchUsers; i++ {
				rec := tableBenchRecord(i, subset)
				base.IDs, base.Keys = append(base.IDs, rec.ID), base.Keys.Append(rec.S.Pack())
			}
			b.ReportAllocs()
			var tab *sketch.Table
			next := 0
			for i := 0; i < b.N; i++ {
				if i%256 == 0 {
					b.StopTimer()
					tab, next = sketch.NewTable(), tableBenchUsers
					// The table owns what it loads; base is loaded again.
					if err := tab.LoadRun(base.Clone()); err != nil {
						b.Fatal(err)
					}
					tab.View(subset)
					b.StartTimer()
				}
				for j := 0; j < tableBenchFresh; j++ {
					rec := tableBenchRecord(next, subset)
					next++
					if _, _, err := tab.AddNew(&rec); err != nil {
						b.Fatal(err)
					}
				}
				if v, _ := tab.View(subset); v.Len() != next {
					b.Fatalf("read %d records after %d writes", v.Len(), next)
				}
			}
		}},
	}
}
