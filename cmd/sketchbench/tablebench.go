package main

import (
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/prf"
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
	// engineBenchColumn is how many records engine-ingest-lone's column
	// holds before its lone publishes arrive.
	engineBenchColumn = 40_000
)

// tableBenchRecord fabricates user i's record for a subset.  The ids are
// scattered over the id space, as tenant-domain ids are, so inserts do not
// arrive in id order.
func tableBenchRecord(i int, subset bitvec.Subset) sketch.Published {
	id := uint64(i+1) * 0x9E3779B97F4A7C15
	return sketch.Published{ID: bitvec.UserID(id), Subset: subset, S: sketch.Sketch{Key: id >> 55, Length: 9}}
}

// tableBenchDenseRecord fabricates user i's record for a subset with a
// fleet-shaped id: a tenant's tag above users numbered as they enrol, two
// of every three of them on this node, so ids ascend as users publish.
func tableBenchDenseRecord(i int, subset bitvec.Subset) sketch.Published {
	id := uint64(7<<40 | (1 + 3*i/2))
	return sketch.Published{ID: bitvec.UserID(id), Subset: subset, S: sketch.Sketch{Key: id * 0x9E3779B97F4A7C15 >> 55, Length: 9}}
}

// tableIngest is the body of the per-record ingest kernels.  One op = one
// record admitted, users publishing their ten subsets in turn; a fresh
// table every 10 × 35k records, so bytes/op is what a node's table
// allocates per record held (columns, folds and index together).
func tableIngest(b *testing.B, subsets []bitvec.Subset, record func(int, bitvec.Subset) sketch.Published) {
	b.ReportAllocs()
	var tab *sketch.Table
	for i := 0; i < b.N; i++ {
		if i%(tableBenchUsers*len(subsets)) == 0 {
			tab = sketch.NewTable()
		}
		rec := record(i/len(subsets)%tableBenchUsers, subsets[i%len(subsets)])
		if _, added, err := tab.AddNew(&rec); err != nil || !added {
			b.Fatalf("AddNew(%v) = added %v, %v", rec.ID, added, err)
		}
	}
}

// tableBenchBatch is how many records one batch of table-ingest-batch
// carries: a bulk import's chunk.
const tableBenchBatch = 8192

// tableBenchBase returns the n-record run the write-then-read kernels (35k)
// and engine-ingest-lone (40k) start from, as a store replays one: ids
// ascending.
func tableBenchBase(subset bitvec.Subset, n int) sketch.Run {
	ids, keys := make([]bitvec.UserID, n), sketch.MakeWords(sketch.Shape(tableBenchRecord(0, subset).S.Length), 0, n)
	for i := range ids {
		rec := tableBenchRecord(i, subset)
		ids[i], keys = rec.ID, keys.Append(rec.S.Pack())
	}
	ids, keys = sketch.SortByID(ids, keys)
	return sketch.Run{Subset: subset, IDs: sketch.MakeIDs(ids), Keys: keys}
}

// tableWriteThenRead is the body of the write-then-read kernels.  One op =
// 32 new users published to a 35k-record subset, then the subset handed to
// read: every read meets pending writes, the mixed-fresh pattern.  The
// table is rebuilt every 256 ops (timer stopped) so the subset stays near
// its nominal size.
func tableWriteThenRead(b *testing.B, subset bitvec.Subset, read func(v sketch.View)) {
	base := tableBenchBase(subset, tableBenchUsers)
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
		v, _ := tab.View(subset)
		if v.Len() != next {
			b.Fatalf("read %d records after %d writes", v.Len(), next)
		}
		read(v)
	}
}

// tableBenchmarks measures the sketch table's write side, which the plan
// kernels (all reads over a finished table) do not: the per-record cost of
// ingest, in time and in allocated bytes, and the cost of a read that
// follows a burst of writes to the subset it reads.  The ids of
// table-ingest and the read kernels are hashed over 64 bits and arrive in
// scattered order: the case an id column can only hold raw, and a fold can
// move no block of whole.  table-ingest-dense and table-ingest-batch ingest
// fleet-shaped ids, record by record and as a bulk import's batches.
// engine-ingest-lone is the write path one published record takes through
// the engine, memory-only: a batch of one, probed and landed.
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
			tableIngest(b, subsets, tableBenchRecord)
		}},
		{"table-ingest-dense", func(b *testing.B) {
			tableIngest(b, subsets, tableBenchDenseRecord)
		}},
		{"table-ingest-batch", func(b *testing.B) {
			// table-ingest-dense's records, user-major, landed through the
			// batch path (Probe, then Land) in 8192-record chunks — the
			// preload's shape.  One op is still one record.
			b.ReportAllocs()
			perTable := tableBenchUsers * len(subsets)
			var tab *sketch.Table
			chunk := make([]sketch.Published, 0, tableBenchBatch)
			for i := 0; i < b.N; {
				if i%perTable == 0 {
					tab = sketch.NewTable()
				}
				chunk = chunk[:0]
				for end := min(b.N, i+tableBenchBatch, (i/perTable+1)*perTable); i < end; i++ {
					chunk = append(chunk, tableBenchDenseRecord(i/len(subsets)%tableBenchUsers, subsets[i%len(subsets)]))
				}
				batch, err := tab.Probe(chunk)
				if err != nil || batch.Len() != len(chunk) {
					b.Fatalf("Probe admitted %d of %d records: %v", batch.Len(), len(chunk), err)
				}
				tab.Land(batch)
			}
		}},
		{"engine-ingest-lone", func(b *testing.B) {
			// One op = one Engine.Ingest of a fresh user, hashed id, onto a
			// warm 40k-record column: its probe, its land into the tail and
			// its share of a fold.  The engine is rebuilt every 8192 ops
			// (timer stopped), past one fold of the tail.
			subset := subsets[len(subsets)-1]
			base := tableBenchBase(subset, engineBenchColumn)
			h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
			b.ReportAllocs()
			var eng *engine.Engine
			next := 0
			for i := 0; i < b.N; i++ {
				if i%8192 == 0 {
					b.StopTimer()
					var err error
					if eng, err = engine.New(h, sketch.MustParams(0.3, 9)); err != nil {
						b.Fatal(err)
					}
					// The table owns what it loads; base is loaded again.
					if err := eng.Table().LoadRun(base.Clone()); err != nil {
						b.Fatal(err)
					}
					next = engineBenchColumn
					b.StartTimer()
				}
				if err := eng.Ingest(tableBenchRecord(next, subset)); err != nil {
					b.Fatal(err)
				}
				next++
			}
		}},
		{"table-write-then-read", func(b *testing.B) {
			// The read takes the view — which folds the 32 writes in — and
			// looks at none of its records.
			tableWriteThenRead(b, subsets[len(subsets)-1], func(sketch.View) {})
		}},
		{"table-read-hashed-ids", func(b *testing.B) {
			// The same, and the read then decodes every id of the view, as a
			// keep mask or a join does: what holding hashed ids in raw blocks
			// costs a reader, fold and decode together.
			var sum bitvec.UserID
			tableWriteThenRead(b, subsets[len(subsets)-1], func(v sketch.View) {
				var buf [sketch.IDBlockLen]bitvec.UserID
				for k, blocks := 0, v.IDs().Blocks(); k < blocks; k++ {
					for _, id := range v.IDs().Block(k, &buf) {
						sum ^= id
					}
				}
			})
			if sum == 1 {
				b.Log("the ids cancel to 1") // keeps the decode loop's result live
			}
		}},
	}
}
