package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
// windows, the last one a commit window of several records over three
// subsets — the same users under each, so that its second and third runs
// share the first's ids — is truncated at every byte offset inside that
// last window, and recovery must return exactly the records of the k-1
// fully-written windows — never an error, never part of the torn window,
// which vanishes whole.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	b, b2, b3 := bitvec.MustSubset(0, 3, 5), bitvec.MustSubset(1, 4), bitvec.Range(0, 10)
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
	var last []sketch.Published
	for _, s := range []bitvec.Subset{b, b2, b3} {
		last = append(last, testRecord(k, s), testRecord(k+1, s), testRecord(k+2, s))
	}
	if failed, err := st.AppendBatch(last); err != nil || len(failed) != 0 {
		t.Fatal(failed, err)
	}
	if shared := sharedRuns(t, st.shards[0].wal.path, lastStart); shared != 2 {
		t.Fatalf("the last window's frame shares ids in %d runs, want 2", shared)
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

// TestWALKeepsNoScratchAcrossWindows: a commit window's frame is borrowed
// for the window and given back, so the logs of a store that has landed a
// large batch hold no more heap once the collector has run than before —
// the batch's 64k records, framed, came to ≈ 13 bytes each while every log
// kept its largest window's scratch.
func TestWALKeepsNoScratchAcrossWindows(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), Shards: 8, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a pooled buffer outlives one collection
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = 64 << 10
	before := heap()
	func() {
		batch := testRecordsRange(1, n, bitvec.MustSubset(0, 1))
		if failed, err := st.AppendBatch(batch); err != nil || len(failed) != 0 {
			t.Fatal(failed, err)
		}
	}()
	after := heap()
	if st.Stats().Records != n {
		t.Fatalf("the logs hold %d records, want %d", st.Stats().Records, n)
	}
	grown := int64(after) - int64(before)
	t.Logf("the heap grew by %d bytes across a batch of %d records", grown, n)
	if grown >= 64<<10 {
		t.Fatalf("the heap grew by %d bytes across a batch of %d records (%.1f B a record), want under 64 KiB", grown, n, float64(grown)/n)
	}
}

// TestWALWindowGroupsRunsStably: a window's frame holds a run for each
// maximal stretch of its records of one subset and length, in arrival
// order — one run per subset when they arrive subset by subset, as the
// engine hands them over, a run per stretch when they do not — so the
// newest of a repeated (user, subset) pair is still the last one, in the
// frame and after normalization, whichever way the records arrive.
func TestWALWindowGroupsRunsStably(t *testing.T) {
	b, b2 := bitvec.MustSubset(0, 3), bitvec.MustSubset(2)
	older := sketch.Published{ID: 7, Subset: b, S: sketch.Sketch{Key: 1, Length: 10}}
	newer := sketch.Published{ID: 7, Subset: b, S: sketch.Sketch{Key: 1<<10 - 1, Length: 10}}
	// run is the bytes of a run of count 10-bit records under subset s whose
	// ids take one block of idBytes: its compact subset, the shape byte and
	// the count's, the ids and the words.
	run := func(s bitvec.Subset, count, idBytes int) int {
		return s.CompactLen() + 1 + 1 + idBytes + (count*10+7)/8
	}
	for _, tc := range []struct {
		name    string
		window  []sketch.Published
		runs    int
		wantLen int
	}{
		// Four stretches: b2, b, b2, then b's last two, which descend and
		// so are one raw block, a width byte and 8-byte ids; a lone id's
		// block is a width byte and the id.
		{"interleaved", []sketch.Published{testRecord(9, b2), older, testRecord(3, b2), testRecord(8, b), newer}, 4,
			walFrameHeader + run(b2, 1, 1+8) + run(b, 1, 1+8) + run(b2, 1, 1+8) + run(b, 2, 1+2*8)},
		// The same records in run order: b2's run and b's, neither in id
		// order, so each one raw block.
		{"in run order", []sketch.Published{testRecord(9, b2), testRecord(3, b2), older, testRecord(8, b), newer}, 2,
			walFrameHeader + run(b2, 2, 1+2*8) + run(b, 3, 1+3*8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := windowFrame(t, tc.window...)
			if len(frame) != tc.wantLen {
				t.Fatalf("window frame is %d bytes, want %d", len(frame), tc.wantLen)
			}
			runs := 0
			if err := eachRun(frame[walFrameHeader:], func(runHeader, []byte, []byte) error { runs++; return nil }); err != nil || runs != tc.runs {
				t.Fatalf("window frame holds %d runs (%v), want %d", runs, err, tc.runs)
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
		})
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

// sharedRuns counts the runs sharing the ids of the run before them in the
// frames of the log at path from offset from on.
func sharedRuns(t *testing.T, path string, from int64) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	if end, err := eachFrame(data, int(from), len(data), func(_ int, payload []byte) error {
		return eachRun(payload, func(h runHeader, _, _ []byte) error {
			if h.shared {
				shared++
			}
			return nil
		})
	}); err != nil || end != len(data) {
		t.Fatalf("the log's frames from %d end at %d of %d: %v", from, end, len(data), err)
	}
	return shared
}

// TestWALBatchSharesIDs: a batch that holds the same users under ten
// subsets, as the engine's bulk import hands one over, is one frame whose
// nine runs after the first carry no id column — a shape byte with the
// shared bit and the words — and replays to every record, each subset's
// run with the first's ids; users that differ by one id, or come in
// another order, are a run's own ids.
func TestWALBatchSharesIDs(t *testing.T) {
	var batch []sketch.Published
	for pos := 0; pos < 10; pos++ {
		batch = append(batch, testRecordsRange(1000, 1099, bitvec.Range(0, pos+1))...)
	}
	frame := windowFrame(t, batch...)
	idBytes := 0
	for at := 0; at < 100; at += 64 {
		ids := make([]bitvec.UserID, 0, 64)
		for _, p := range batch[at:min(at+64, 100)] {
			ids = append(ids, p.ID)
		}
		idBytes += len(sketch.AppendIDBlocks(nil, ids))
	}
	want := walFrameHeader + idBytes
	for pos := 0; pos < 10; pos++ {
		b := bitvec.Range(0, pos+1)
		want += b.CompactLen() + 1 + (100*10+7)/8
		if pos == 0 {
			want++ // the count, which the shared runs leave out
		}
	}
	if len(frame) != want {
		t.Fatalf("the frame of 10 subsets × 100 users is %d bytes, want %d", len(frame), want)
	}
	image := append(walMagic[:len(walMagic):len(walMagic)], frame...)
	got, valid := logRecords(t, image)
	if valid != int64(len(image)) || !slices.EqualFunc(got, flatten(testRuns(batch)), samePub) {
		t.Fatalf("the frame replays %d of %d bytes to %d records, want %d", valid, len(image), len(got), len(batch))
	}
	path := filepath.Join(t.TempDir(), walName)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if shared := sharedRuns(t, path, int64(len(walMagic))); shared != 9 {
		t.Fatalf("%d runs share ids, want 9", shared)
	}
	// One id apart, or the same ids in another order: no run shares.
	b, b2 := bitvec.MustSubset(0), bitvec.MustSubset(1)
	for name, window := range map[string][]sketch.Published{
		"one id apart":  {testRecord(1, b), testRecord(2, b), testRecord(1, b2), testRecord(3, b2)},
		"another order": {testRecord(1, b), testRecord(2, b), testRecord(2, b2), testRecord(1, b2)},
		"one id more":   {testRecord(1, b), testRecord(2, b), testRecord(1, b2), testRecord(2, b2), testRecord(3, b2)},
	} {
		image := append(walMagic[:len(walMagic):len(walMagic)], windowFrame(t, window...)...)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		if shared := sharedRuns(t, path, int64(len(walMagic))); shared != 0 {
			t.Fatalf("%s: %d runs share ids", name, shared)
		}
		if got, valid := logRecords(t, image); valid != int64(len(image)) || !slices.EqualFunc(got, flatten(testRuns(window)), samePub) {
			t.Fatalf("%s: replays %d of %d bytes to %+v", name, valid, len(image), got)
		}
	}
}

// TestSharedIDsOnFirstRunIsCorrupt: a frame's first run sharing the ids of
// a run before it — there is none — is malformed however clean its
// checksum: the end of the valid prefix in a log, ErrSegmentCorrupt in a
// segment.  So is a segment frame of two runs, the second sharing the
// first's ids, which no segment writer writes.
func TestSharedIDsOnFirstRunIsCorrupt(t *testing.T) {
	b, b2 := bitvec.MustSubset(0, 2), bitvec.MustSubset(1)
	first := windowFrame(t, testRecord(9, b))
	// The lone record's run with the shared bit set and its count dropped.
	lone := first[walFrameHeader:]
	at := b.CompactLen()
	bad := append(append(bytes.Clone(lone[:at]), lone[at]|sharedIDs), lone[at+2+9:]...)
	image := append(append(walMagic[:len(walMagic):len(walMagic)], first...), logFrame(bad)...)
	if got, valid := logRecords(t, image); valid != int64(len(walMagic)+len(first)) || len(got) != 1 {
		t.Fatalf("a first run sharing ids: replay kept %d of %d bytes, %d records", valid, len(image), len(got))
	}
	if _, err := scanSegment(oneRunSegment(bad, 1), "seg"); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("a segment's run sharing ids: scanSegment = %v", err)
	}
	two := windowFrame(t, testRecord(9, b), testRecord(9, b2))[walFrameHeader:]
	if _, err := scanSegment(oneRunSegment(two, 2), "seg"); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("a segment frame of two runs: scanSegment = %v", err)
	}
}

// TestWindowBytesBoundsFrame: windowBytes, what the committer charges a
// group against its window's size cap, is at least the bytes appendFrame
// writes for it — for random groups of runs of 1 to 40 positions and 1 to
// 30 bits, of 1 to 200 records, ids dense, spread, hashed or out of order,
// each run sharing the ids of the one before it or not — and exact for
// the group the cap meets most, a lone record: 32 bytes for a P10 one.
func TestWindowBytesBoundsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	lone := []sketch.Published{{ID: 1 << 40, Subset: bitvec.Range(0, 10), S: sketch.Sketch{Key: 5, Length: 9}}}
	if frame, err := appendFrame(nil, lone); err != nil || len(frame) != 32 || windowBytes(lone) != 32 {
		t.Fatalf("a lone P10 record frames in %d bytes (%v), windowBytes says %d; want 32", len(frame), err, windowBytes(lone))
	}
	for trial := 0; trial < 2000; trial++ {
		var group []sketch.Published
		var prev []bitvec.UserID
		for runs := 1 + rng.Intn(4); runs > 0; runs-- {
			positions := rng.Perm(200)[:1+rng.Intn(40)]
			b, length := bitvec.MustSubset(positions...), 1+rng.Intn(30)
			ids := prev
			if ids == nil || rng.Intn(2) == 0 {
				n := 1 + rng.Intn(200)
				ids = make([]bitvec.UserID, n)
				base := rng.Uint64()
				for i := range ids {
					switch rng.Intn(3) {
					case 0:
						ids[i] = bitvec.UserID(base + uint64(i))
					case 1:
						ids[i] = bitvec.UserID(base + uint64(i)*uint64(1+rng.Intn(1<<20)))
					default:
						ids[i] = bitvec.UserID(rng.Uint64())
					}
				}
			}
			for _, id := range ids {
				group = append(group, sketch.Published{ID: id, Subset: b, S: sketch.Sketch{Key: rng.Uint64() % (1 << uint(length)), Length: length}})
			}
			prev = ids
		}
		frame, err := appendFrame(nil, group)
		if err != nil {
			t.Fatal(err)
		}
		if got := windowBytes(group); got < len(frame) {
			t.Fatalf("trial %d: windowBytes charges %d bytes for a %d-byte frame of %d records", trial, got, len(frame), len(group))
		}
	}
}
