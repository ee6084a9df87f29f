package store

import (
	"os"
	"path/filepath"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/sketch"
)

// openTornCopy writes image as the only shard's log of a new data
// directory and opens it.
func openTornCopy(t *testing.T, image []byte) (*Durable, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "torn")
	shardDir := filepath.Join(dir, "shard-0000")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shardDir, walName)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	// A log is never older than its directory's manifest.
	if err := writeManifest(dir, 1, manifestFormat, false); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("recovery of a %d-byte log failed: %v", len(image), err)
	}
	return st, path
}

// TestWALTornTailEveryOffset is the kill-mid-write simulation: a log of k
// windows, the last one a commit window of several records over two
// subsets, is truncated at every byte offset inside that last window, and
// recovery must return exactly the records of the k-1 fully-written
// windows — never an error, never part of the torn window, which vanishes
// whole.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	b, b2 := bitvec.MustSubset(0, 3, 5), bitvec.MustSubset(1, 4)
	const k = 8
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < k; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	lastStart := st.shards[0].wal.size
	last := []sketch.Published{testRecord(k, b), testRecord(k, b2), testRecord(k+1, b), testRecord(k+1, b2), testRecord(k+2, b)}
	if failed, err := st.AppendBatch(last); err != nil || len(failed) != 0 {
		t.Fatal(failed, err)
	}
	walPath := st.shards[0].wal.path
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for cut := lastStart; cut < int64(len(full)); cut++ {
		st2, tornPath := openTornCopy(t, full[:cut])
		got := collect(t, st2)
		if len(got) != k-1 {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), k-1)
		}
		for _, p := range got {
			want := testRecord(uint64(p.ID), b)
			if p.ID >= k || p.S != want.S || !p.Subset.Equal(b) {
				t.Fatalf("cut=%d: recovered %+v, no record of the whole windows", cut, p)
			}
		}
		// The torn tail must be physically gone so appends restart clean.
		if info, err := os.Stat(tornPath); err != nil || info.Size() != lastStart {
			t.Fatalf("cut=%d: wal not truncated to %d (size %v, err %v)", cut, lastStart, info.Size(), err)
		}
		// And the recovered log must accept new records.
		if err := st2.Append(testRecord(k+1, b)); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if got := collect(t, st2); len(got) != k {
			t.Fatalf("cut=%d: after recovery append, %d records, want %d", cut, len(got), k)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALBitFlipStopsReplay verifies a checksum-violating byte anywhere in
// the final window ends replay at the last good window.
func TestWALBitFlipStopsReplay(t *testing.T) {
	dir := t.TempDir()
	b := bitvec.MustSubset(1)
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	var lastStart int64
	for i := uint64(1); i <= 3; i++ {
		lastStart = st.shards[0].wal.size
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	walPath := st.shards[0].wal.path
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for at := lastStart; at < int64(len(data)); at++ {
		flipped := append([]byte(nil), data...)
		flipped[at] ^= 0xFF
		records, size := logRecords(t, flipped)
		if len(records) != 2 || size != lastStart {
			t.Fatalf("replay after a bit flip at %d: %d records ending at %d, want 2 ending at %d", at, len(records), size, lastStart)
		}
	}
}

// TestWALKeepsNoRecordsAcrossAppends pins the no-mirror rule: the log's
// decoded runs are kept until the next append and no longer, a quiet
// store's reads share one decode, and what a read returns after an append
// comes from the file.
func TestWALKeepsNoRecordsAcrossAppends(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(Options{Dir: t.TempDir(), Shards: 1, CompactInterval: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(0, 1)
	w := st.shards[0].wal
	decodes := func() uint64 { return st.shards[0].m.logDecodes.Value() }
	const n = 1000
	batch := make([]sketch.Published, n)
	for i := range batch {
		batch[i] = testRecord(uint64(i+1), b)
	}
	if failed, err := st.AppendBatch(batch); err != nil || len(failed) != 0 {
		t.Fatal(failed, err)
	}
	if w.keptOK || w.kept != nil {
		t.Fatal("the log keeps decoded runs across an append")
	}
	// 1000 lookups, a stream and a full iteration of the quiet store: one
	// decode between them.
	for _, p := range batch {
		got, ok, err := st.Lookup(p.ID, b.Key())
		if err != nil || !ok || got.S != p.S {
			t.Fatalf("Lookup(%d) = %+v %v %v", p.ID, got, ok, err)
		}
	}
	if _, ok, err := st.Lookup(n+1, b.Key()); err != nil || ok {
		t.Fatalf("Lookup of an absent user = %v %v", ok, err)
	}
	if got := drainBatches(t, st, 128); len(got) != n {
		t.Fatalf("streamed %d records, want %d", len(got), n)
	}
	if got := collect(t, st); len(got) != n {
		t.Fatalf("iterated %d records, want %d", len(got), n)
	}
	if d := decodes(); d != 1 {
		t.Fatalf("%d log decodes across 1000 lookups, a stream and an iteration with no append between them, want 1", d)
	}
	// The next append drops the runs; the read after it decodes again and
	// sees the new record.
	if err := st.Append(testRecord(n+1, b)); err != nil {
		t.Fatal(err)
	}
	if w.keptOK || w.kept != nil {
		t.Fatal("the log keeps decoded runs across an append")
	}
	if _, ok, err := st.Lookup(n+1, b.Key()); err != nil || !ok {
		t.Fatalf("Lookup of the record just appended = %v %v", ok, err)
	}
	if d := decodes(); d != 2 {
		t.Fatalf("%d log decodes after one more append and read, want 2", d)
	}
}

// TestWALWindowGroupsRunsStably: a window's records are grouped by subset
// in order of first appearance, each group in arrival order, so the newest
// of a repeated (user, subset) pair is still the last one — in the frame,
// and after normalization.
func TestWALWindowGroupsRunsStably(t *testing.T) {
	b, b2 := bitvec.MustSubset(0, 3), bitvec.MustSubset(2)
	older := sketch.Published{ID: 7, Subset: b, S: sketch.Sketch{Key: 1, Length: 10}}
	newer := sketch.Published{ID: 7, Subset: b, S: sketch.Sketch{Key: 1<<10 - 1, Length: 10}}
	window := []sketch.Published{testRecord(9, b2), older, testRecord(3, b2), testRecord(8, b), newer}
	frame := windowFrame(t, window...)
	// One frame: 4+4 header, run count, then b2's run (first seen) and b's,
	// neither in id order, so each one raw block: a width byte and 8-byte
	// ids.  b2's two 10-bit keys take 20 bits, b's three 30.
	wantLen := walFrameHeader + 4 + (runHeaderFixed + b2.TagLen() + 1 + 2*8 + (2*10+7)/8) + (runHeaderFixed + b.TagLen() + 1 + 3*8 + (3*10+7)/8)
	if len(frame) != wantLen {
		t.Fatalf("window frame is %d bytes, want %d", len(frame), wantLen)
	}
	got, valid := logRecords(t, append(walMagic[:], frame...))
	if valid != int64(len(walMagic)+len(frame)) {
		t.Fatalf("the frame does not decode whole: %d of %d bytes", valid, len(walMagic)+len(frame))
	}
	want := []sketch.Published{testRecord(3, b2), testRecord(9, b2), newer, testRecord(8, b)}
	if len(got) != len(want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for i := range want {
		if !samePub(got[i], want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAppendRefusesInvalidSketch: the disk word has no form for a sketch
// that is not Valid, so the append fails before anything is written.
func TestAppendRefusesInvalidSketch(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(0)
	bad := sketch.Published{ID: 1, Subset: b, S: sketch.Sketch{Key: 1 << 12, Length: 10}}
	size := st.shards[0].wal.size
	if err := st.Append(bad); err == nil {
		t.Fatal("append of an invalid sketch succeeded")
	}
	if failed, err := st.AppendBatch([]sketch.Published{testRecord(2, b), bad}); err == nil || len(failed) != 2 {
		t.Fatalf("AppendBatch with an invalid sketch = %v, %v; want both records of the shard group failed", failed, err)
	}
	if st.shards[0].wal.size != size || len(collect(t, st)) != 0 {
		t.Fatal("a refused append reached the log")
	}
}
