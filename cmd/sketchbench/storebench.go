package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

// storeReplayRecords is how many sketches the startup-replay benchmark
// recovers; -quick drops it so CI stays fast while the name keeps the
// scale visible in BENCH.json.
const (
	storeReplayRecords      = 1_000_000
	storeReplayRecordsQuick = 100_000

	// storeBatchWriters is the concurrency of the group-commit append
	// benchmark: enough writers that a commit window amortises its fsync
	// across a full cohort, matching the gateway's batched ingest fan-in.
	storeBatchWriters = 64
	// storeBatchPerWriter is how many records one writer submits per
	// AppendBatch call — a gateway-sized client batch.
	storeBatchPerWriter = 64

	// storeLookupRecords sizes the point-lookup benchmark's segment set;
	// -quick shrinks it for CI.
	storeLookupRecords      = 200_000
	storeLookupRecordsQuick = 50_000
)

// storeRecord fabricates a valid published sketch; the store does not
// care how the key was produced, so benchmarks skip Algorithm 1.
func storeRecord(id uint64, b bitvec.Subset) sketch.Published {
	return sketch.Published{
		ID:     bitvec.UserID(id),
		Subset: b,
		S:      sketch.Sketch{Key: id % 1024, Length: 10},
	}
}

// storeBenchmarks measures the durability layer: append throughput into
// the sharded WAL (with and without per-record fsync) and full startup
// replay — store open, WAL replay, segment load and table rehydration.
func storeBenchmarks(quick bool) []struct {
	name string
	fn   func(b *testing.B)
} {
	replayN := storeReplayRecords
	replayName := "store-replay-1m"
	if quick {
		replayN = storeReplayRecordsQuick
		replayName = "store-replay-100k"
	}
	subset := bitvec.Range(0, 8)
	appendBench := func(fsync bool) func(b *testing.B) {
		return func(b *testing.B) {
			dir, err := os.MkdirTemp("", "sketchbench-store")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(store.Options{Dir: dir, Shards: 8, Fsync: fsync, CompactInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Append(storeRecord(uint64(i+1), subset)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	lookupN := storeLookupRecords
	if quick {
		lookupN = storeLookupRecordsQuick
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"store-append", appendBench(false)},
		{"store-append-fsync", appendBench(true)},
		{"store-append-fsync-batch", func(b *testing.B) {
			// The batched durable-ingest path the gateway drives: 64
			// concurrent writers, each landing a batch of records through
			// AppendBatch, so a batch costs one commit-window entry — and a
			// shared fsync — per touched shard instead of one fsync (and one
			// scheduler park) per record.  ns/op is per RECORD; compare
			// against store-append-fsync (one fsync per record) for the
			// group-commit win.
			dir, err := os.MkdirTemp("", "sketchbench-store")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(store.Options{Dir: dir, Shards: 8, Fsync: true, CompactInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			writers := storeBatchWriters
			if writers > b.N {
				writers = b.N
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					batch := make([]sketch.Published, 0, storeBatchPerWriter)
					for {
						// Claim a contiguous chunk of the op budget; the last
						// chunk may be short.
						start := next.Add(storeBatchPerWriter) - storeBatchPerWriter
						if start >= int64(b.N) {
							return
						}
						n := min(int64(storeBatchPerWriter), int64(b.N)-start)
						batch = batch[:0]
						for i := int64(0); i < n; i++ {
							batch = append(batch, storeRecord(uint64(start+i+1), subset))
						}
						if failed, err := st.AppendBatch(batch); err != nil || len(failed) > 0 {
							errc <- fmt.Errorf("append batch: %d failed: %v", len(failed), err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		}},
		{replayName, func(b *testing.B) {
			dir, err := os.MkdirTemp("", "sketchbench-replay")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(store.Options{Dir: dir, Shards: 8, CompactInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < replayN; i++ {
				if err := st.Append(storeRecord(uint64(i+1), subset)); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
			params := sketch.MustParams(0.3, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One op = the daemon's full cold start: open the data
				// directory and rehydrate the query table.
				rst, err := store.Open(store.Options{Dir: dir, CompactInterval: -1})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := engine.NewWithStore(h, params, rst)
				if err != nil {
					b.Fatal(err)
				}
				if eng.Sketches() != replayN {
					b.Fatalf("replay recovered %d sketches, want %d", eng.Sketches(), replayN)
				}
				if err := rst.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"store-roll", func(b *testing.B) {
			// One op = one record rolled from the log into a segment, at
			// the default flush threshold: the roll decodes the log's
			// acknowledged prefix (nothing mirrors it in memory), sorts
			// each subset's ids, writes and fsyncs the segment and empties
			// the log.  Only the append that crosses the threshold — a
			// 1024-record window — is timed with it; the appends that fill
			// the log are not.  Whole logs are rolled, so the last one
			// overshoots b.N by up to one log (under 2 % at the default
			// benchtime).
			dir, err := os.MkdirTemp("", "sketchbench-roll")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(store.Options{Dir: dir, Shards: 1, CompactInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			const window = 1024
			batch := make([]sketch.Published, window)
			next := uint64(0)
			appendWindow := func() {
				for i := range batch {
					// Scattered ids, as tenant-domain ids are: the roll's
					// sort has work to do.
					next++
					batch[i] = storeRecord(next*0x9E3779B97F4A7C15, subset)
				}
				if failed, err := st.AppendBatch(batch); err != nil || len(failed) > 0 {
					b.Fatalf("append batch: %d failed: %v", len(failed), err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for rolled := 0; rolled < b.N; {
				before := st.Stats().Shards[0]
				appendWindow()
				perWindow := st.Stats().Shards[0].WALBytes - before.WALBytes
				for {
					sh := st.Stats().Shards[0]
					if sh.WALBytes+perWindow >= store.DefaultFlushThreshold {
						b.StartTimer()
						appendWindow() // crosses the threshold: rolls inline
						b.StopTimer()
						if after := st.Stats().Shards[0]; after.WALRecords != 0 {
							b.Fatalf("the log did not roll: %+v", after)
						}
						rolled += int(sh.WALRecords) + window
						break
					}
					appendWindow()
				}
			}
		}},
		{"store-replay-indexed", func(b *testing.B) {
			// Cold start from segments rather than a raw WAL: the data
			// directory is flushed and compacted before timing, so one op
			// is open + per-subset merge of the shards' runs + table
			// rehydration.
			dir, err := os.MkdirTemp("", "sketchbench-replay-indexed")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(store.Options{Dir: dir, Shards: 8, CompactInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < replayN; i++ {
				if err := st.Append(storeRecord(uint64(i+1), subset)); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := st.CompactNow(2); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
			params := sketch.MustParams(0.3, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rst, err := store.Open(store.Options{Dir: dir, CompactInterval: -1})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := engine.NewWithStore(h, params, rst)
				if err != nil {
					b.Fatal(err)
				}
				if eng.Sketches() != replayN {
					b.Fatalf("replay recovered %d sketches, want %d", eng.Sketches(), replayN)
				}
				if err := rst.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"segment-point-lookup", func(b *testing.B) {
			// One op = a single-record read through the segment machinery:
			// run directory, sparse-index binary search, one block read.  The record set is flushed into segments first,
			// so no lookup is served from the log.
			dir, err := os.MkdirTemp("", "sketchbench-lookup")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			seed, err := store.Open(store.Options{Dir: dir, Shards: 8, CompactInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < lookupN; i++ {
				if err := seed.Append(storeRecord(uint64(i+1), subset)); err != nil {
					b.Fatal(err)
				}
			}
			if err := seed.Close(); err != nil {
				b.Fatal(err)
			}
			// Reopen with a 1-byte flush threshold so Flush rolls EVERY
			// record into segments and compaction merges each shard to one:
			// the measured lookups must cross the run directory and sparse
			// index, not the log.
			st, err := store.Open(store.Options{Dir: dir, FlushThreshold: 1, CompactInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := st.CompactNow(2); err != nil {
				b.Fatal(err)
			}
			key := subset.Key()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := bitvec.UserID(uint64(i)%uint64(lookupN) + 1)
				p, ok, err := st.Lookup(id, key)
				if err != nil {
					b.Fatal(err)
				}
				if !ok || p.ID != id {
					b.Fatalf("lookup of %d returned ok=%v id=%d", id, ok, p.ID)
				}
			}
		}},
	}
}
