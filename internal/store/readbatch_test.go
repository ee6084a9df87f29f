package store

import (
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// batchRecord fabricates a distinct valid record per id.
func batchRecord(id uint64) sketch.Published {
	return sketch.Published{
		ID:     bitvec.UserID(id),
		Subset: bitvec.MustSubset(0, 2),
		S:      sketch.Sketch{Key: id % 512, Length: 10},
	}
}

// drainBatches streams a BatchReader to exhaustion with a small batch size.
func drainBatches(t *testing.T, br BatchReader, max int) []sketch.Published {
	t.Helper()
	var out []sketch.Published
	cursor := uint64(0)
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("batch stream did not terminate")
		}
		records, next, done, err := br.ReadBatch(cursor, max)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, records...)
		if done {
			return out
		}
		if next == cursor && len(records) == 0 {
			t.Fatalf("stream stalled at cursor %d", cursor)
		}
		cursor = next
	}
}

// coverage returns the distinct (user, subset) keys in a record stream.
func coverage(records []sketch.Published) map[recordKey]sketch.Published {
	out := make(map[recordKey]sketch.Published, len(records))
	for _, p := range records {
		out[keyOf(p)] = p
	}
	return out
}

func TestMemReadBatchCoversEverything(t *testing.T) {
	m := NewMem()
	const n = 1000
	for i := uint64(1); i <= n; i++ {
		if _, err := m.AppendBatch([]sketch.Published{batchRecord(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := coverage(drainBatches(t, m, 77))
	if len(got) != n {
		t.Fatalf("stream covered %d distinct records, want %d", len(got), n)
	}
}

func TestDurableReadBatchCoversSegmentsAndWAL(t *testing.T) {
	d, err := Open(Options{
		Dir:             t.TempDir(),
		Shards:          4,
		FlushThreshold:  4 << 10, // force frequent rolls into segments
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 3000
	for i := uint64(1); i <= n; i++ {
		if err := d.Append(batchRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Segments() == 0 {
		t.Fatal("test store rolled no segments; threshold too large")
	}
	streamed := coverage(drainBatches(t, d, 256))
	if len(streamed) != n {
		t.Fatalf("stream covered %d distinct records, want %d", len(streamed), n)
	}
	// The stream agrees with Iterate record for record.
	if err := d.Iterate(func(p sketch.Published) error {
		got, ok := streamed[keyOf(p)]
		if !ok {
			t.Fatalf("record %v missing from the stream", p.ID)
		}
		if got.S != p.S {
			t.Fatalf("record %v streamed as %v, Iterate holds %v", p.ID, got.S, p.S)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableReadBatchSurvivesConcurrentRollAndCompact is the no-skip
// property under the events that move records mid-stream: a roll
// (WAL → segment) and a compaction (segments → one segment) between
// batches must never hide a pre-existing record from the stream.
func TestDurableReadBatchSurvivesConcurrentRollAndCompact(t *testing.T) {
	d, err := Open(Options{
		Dir:             t.TempDir(),
		Shards:          2,
		FlushThreshold:  2 << 10,
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		if err := d.Append(batchRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	var out []sketch.Published
	cursor := uint64(0)
	step := 0
	for {
		records, next, done, err := d.ReadBatch(cursor, 100)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, records...)
		if done {
			break
		}
		cursor = next
		step++
		switch step {
		case 3:
			// Roll every WAL into segments mid-stream.
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, sh := range d.shards {
				sh.mu.Lock()
				err := sh.rollLocked()
				sh.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
		case 6:
			// Merge all segments mid-stream.
			if err := d.CompactNow(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := coverage(out)
	if len(got) != n {
		t.Fatalf("stream covered %d distinct records under roll+compact, want %d", len(got), n)
	}
	if len(out) < n {
		t.Fatalf("stream returned %d records total, want at least %d", len(out), n)
	}
}

// TestReadBatchRefusesLogBeyondCursorRange: the cursor gives a log offset
// 23 bits, like a segment offset.  A log holding more records than that —
// a shard that cannot roll, or a flush threshold past 100 MiB — must be
// refused by the log phase as an oversized segment is by its phase; packed
// anyway, the offset would overflow into the cursor's other fields and the
// stream would re-read the shard forever.
func TestReadBatchRefusesLogBeyondCursorRange(t *testing.T) {
	d, err := Open(Options{Dir: t.TempDir(), Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Append(batchRecord(1)); err != nil {
		t.Fatal(err)
	}
	// Building a log of 2^23 records takes a while; claim one.
	d.shards[0].wal.records = curOffMax + 1
	for _, cursor := range []uint64{0, packCursor(batchCursor{phase: curPhaseWAL, off: curOffMax})} {
		_, _, _, err := d.ReadBatch(cursor, 10)
		if err == nil || !strings.Contains(err.Error(), "exceeding the streaming cursor range") {
			t.Fatalf("ReadBatch(%#x) of a log beyond the cursor's offset range = %v, want a refusal", cursor, err)
		}
	}
	if got := unpackCursor(packCursor(batchCursor{phase: curPhaseWAL, off: curOffMax})); got.off != curOffMax || got.phase != curPhaseWAL || got.seq != 0 {
		t.Fatalf("the largest log offset does not round-trip: %+v", got)
	}
}
