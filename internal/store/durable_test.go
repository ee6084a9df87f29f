package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/sketch"
)

// testRecord fabricates a valid published sketch for user id over subset b.
func testRecord(id uint64, b bitvec.Subset) sketch.Published {
	return sketch.Published{
		ID:     bitvec.UserID(id),
		Subset: b,
		S:      sketch.Sketch{Key: id % 1024, Length: 10},
	}
}

// collect drains a store's IterateRuns into a slice of records.
func collect(t *testing.T, st Store) []sketch.Published {
	t.Helper()
	var out []sketch.Published
	if err := st.IterateRuns(func(r sketch.Run) error {
		out = r.AppendTo(out)
		return nil
	}); err != nil {
		t.Fatalf("IterateRuns: %v", err)
	}
	return out
}

// testRuns normalizes records the way the store does: grouped by subset
// in tag order, ids ascending, the later record winning a repeated pair.
func testRuns(ps []sketch.Published) []run {
	set := newRunSet()
	for _, p := range ps {
		set.add(p)
	}
	return set.normalized()
}

// flatten lists the records of runs in order.
func flatten(runs []run) []sketch.Published {
	var out []sketch.Published
	for _, r := range runs {
		out = r.AppendTo(out)
	}
	return out
}

// writeTestSegment writes records as segment seq of dir.
func writeTestSegment(t *testing.T, dir string, seq uint64, ps []sketch.Published) segmentMeta {
	t.Helper()
	image, idx := encodeSegment(testRuns(ps))
	meta, err := writeSegment(dir, seq, image, idx)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// windowFrame returns the log frame a window of ps is written as.
func windowFrame(t *testing.T, ps ...sketch.Published) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch(ps); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data[len(walMagic):]
}

// logRecords decodes a log image — with no side effect on any file — and
// returns its valid prefix's records and length.
func logRecords(t *testing.T, image []byte) ([]sketch.Published, int64) {
	t.Helper()
	set := newRunSet()
	valid, _ := scanLog(image, set)
	return flatten(set.normalized()), valid
}

// indexRecords maps (user, subset) to the stored sketch, failing on dups.
func indexRecords(t *testing.T, ps []sketch.Published) map[recordKey]sketch.Sketch {
	t.Helper()
	out := make(map[recordKey]sketch.Sketch, len(ps))
	for _, p := range ps {
		k := keyOf(p)
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate record for user %d subset %v after dedup", p.ID, p.Subset)
		}
		out[k] = p.S
	}
	return out
}

func TestDurableAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 4, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := bitvec.MustSubset(0, 2, 4)
	const n = 500
	for i := uint64(1); i <= n; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if got := collect(t, st); len(got) != n {
		t.Fatalf("Iterate before close returned %d records, want %d", len(got), n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(st2.shards) != 4 {
		t.Fatalf("reopen found %d shards, want 4 (adopted from disk)", len(st2.shards))
	}
	got := indexRecords(t, collect(t, st2))
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for i := uint64(1); i <= n; i++ {
		want := testRecord(i, b)
		s, ok := got[keyOf(want)]
		if !ok {
			t.Fatalf("user %d missing after reopen", i)
		}
		if s != want.S {
			t.Fatalf("user %d sketch %v, want %v", i, s, want.S)
		}
	}
	if stats := st2.Stats(); stats.Records != n {
		t.Fatalf("Stats.Records = %d, want %d", stats.Records, n)
	}
}

func TestDurableRollsWALIntoSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every few appends roll into a segment.
	st, err := Open(Options{Dir: dir, Shards: 2, FlushThreshold: 256, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(1, 3)
	const n = 200
	for i := uint64(1); i <= n; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Segments() == 0 {
		t.Fatalf("expected segments after %d appends past a 256-byte threshold, got none (stats %+v)", n, stats)
	}
	if len(collect(t, st)) != n {
		t.Fatalf("records lost across WAL rolls")
	}
}

func TestDurableCompactionMergesAndDedups(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, FlushThreshold: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(0)
	// FlushThreshold 1: every append creates its own segment, including
	// three generations of user 7's record.
	for i := uint64(1); i <= 10; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	newest := sketch.Published{ID: 7, Subset: b, S: sketch.Sketch{Key: 3, Length: 10}}
	for _, s := range []sketch.Sketch{{Key: 1, Length: 10}, {Key: 2, Length: 10}, newest.S} {
		if err := st.Append(sketch.Published{ID: 7, Subset: b, S: s}); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats()
	if before.Segments() < 13 {
		t.Fatalf("setup expected one segment per append, got %d", before.Segments())
	}
	if err := st.CompactNow(2); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Segments() != 1 {
		t.Fatalf("compaction left %d segments, want 1", after.Segments())
	}
	got := indexRecords(t, collect(t, st))
	if len(got) != 10 {
		t.Fatalf("compacted store has %d unique records, want 10", len(got))
	}
	if s := got[keyOf(newest)]; s != newest.S {
		t.Fatalf("compaction kept sketch %v for user 7, want newest %v", s, newest.S)
	}

	// Compacted state must survive a reopen.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got2 := indexRecords(t, collect(t, st2))
	if len(got2) != 10 || got2[keyOf(newest)] != newest.S {
		t.Fatalf("compacted state corrupted by reopen: %d records", len(got2))
	}
}

func TestDurableWALNewerThanSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, FlushThreshold: 1 << 20, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(0)
	old := sketch.Published{ID: 1, Subset: b, S: sketch.Sketch{Key: 11, Length: 10}}
	if err := st.Append(old); err != nil {
		t.Fatal(err)
	}
	// Force the old record into a segment, then append a newer one that
	// stays in the WAL.
	st.shards[0].mu.Lock()
	err = st.shards[0].rollLocked()
	st.shards[0].mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	newer := sketch.Published{ID: 1, Subset: b, S: sketch.Sketch{Key: 22, Length: 10}}
	if err := st.Append(newer); err != nil {
		t.Fatal(err)
	}
	got := collect(t, st)
	if len(got) != 1 || got[0].S != newer.S {
		t.Fatalf("WAL record must shadow segment record, got %+v", got)
	}
}

func TestDurableCrashBetweenSegmentAndTruncate(t *testing.T) {
	// A crash after a segment lands but before the WAL truncates leaves
	// the same records in both; recovery must deduplicate them.
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := bitvec.MustSubset(0, 1)
	for i := uint64(1); i <= 20; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: write the segment by hand, leave wal.log alone.
	sh := st.shards[0]
	runs, err := sh.wal.runs()
	if err != nil {
		t.Fatal(err)
	}
	image, idx := encodeSegment(runs)
	if _, err := writeSegment(sh.dir, sh.nextSeq, image, idx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := indexRecords(t, collect(t, st2))
	if len(got) != 20 {
		t.Fatalf("recovered %d unique records, want 20", len(got))
	}
}

func TestDurableLeftoverTmpSegmentIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := bitvec.MustSubset(2)
	if err := st.Append(testRecord(1, b)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-flush leaves a partial .tmp file behind.
	tmp := filepath.Join(dir, "shard-0000", segmentName(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := collect(t, st2); len(got) != 1 {
		t.Fatalf("recovered %d records, want 1", len(got))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp segment not cleaned up: %v", err)
	}
}

// TestDurableCorruptSegmentFailsOpen pins the integrity contract: a
// segment is sealed, so any damage to it fails Open loudly with
// ErrSegmentCorrupt and writes nothing, where a log's torn tail would be
// cut off — a record's bytes, a run header, the footer's record count,
// bytes stored between the last frame and the footer (as an older writer
// stored an index directory there), and every other byte of the file
// flipped or its tail lost.  The clean segment opens and serves its
// records.
func TestDurableCorruptSegmentFailsOpen(t *testing.T) {
	want := []sketch.Published{testRecord(1, bitvec.MustSubset(0)), testRecord(7, bitvec.MustSubset(0, 3))}
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := st.shards[0].rollLocked(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, shardDirName(0), segmentName(1))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The magic, a frame of one run for each subset — its compact subset
	// (2 and 3 bytes), a shape byte, a count, one id block of one id and 10
	// bits of key — and the footer.
	if want := len(segMagic) + 2*(walFrameHeader+1+1+9+2) + 2 + 3 + segFooterSize; len(clean) != want {
		t.Fatalf("the segment is %d bytes, want %d", len(clean), want)
	}
	refused := func(t *testing.T, what string, image []byte) {
		t.Helper()
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirState(t, dir)
		st, err := Open(Options{Dir: dir, CompactInterval: -1})
		if !errors.Is(err, ErrSegmentCorrupt) {
			if err == nil {
				st.Close()
			}
			t.Fatalf("Open of a segment with %s = %v, want ErrSegmentCorrupt", what, err)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("the refused Open of a segment with %s wrote to the directory", what)
		}
	}
	flipped := func(at int) []byte {
		image := bytes.Clone(clean)
		image[at] ^= 0xFF
		return image
	}
	// The first run's frame: its header, the run header (subset {0} in 2
	// bytes, the shape byte and the count) and then the record's id block.
	const firstRun = len(segMagic) + walFrameHeader
	t.Run("record frame", func(t *testing.T) {
		refused(t, "a corrupt record", flipped(firstRun+2+1+1+1))
	})
	t.Run("run header", func(t *testing.T) {
		refused(t, "a corrupt run header", flipped(firstRun+2))
	})
	t.Run("index footer", func(t *testing.T) {
		refused(t, "a corrupt record count", flipped(len(clean)-1))
	})
	t.Run("index directory", func(t *testing.T) {
		end := len(clean) - segFooterSize
		refused(t, "bytes before its footer", append(append(clean[:end:end], bytes.Repeat([]byte{0xA5}, 48)...), clean[end:]...))
	})
	t.Run("every byte", func(t *testing.T) {
		for at := range clean {
			for _, flip := range []byte{0x01, 0x80} {
				image := bytes.Clone(clean)
				image[at] ^= flip
				refused(t, fmt.Sprintf("byte %d flipped by %#x", at, flip), image)
			}
		}
		for _, cut := range []int{1, segFooterSize, segFooterSize + 1, len(clean) - len(segMagic)} {
			refused(t, fmt.Sprintf("its last %d bytes lost", cut), clean[:len(clean)-cut])
		}
	})
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	requireServes(t, st, want)
}

func TestDurableDirLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, CompactInterval: -1}); err == nil {
		t.Fatal("second Open on a live data directory must fail, or two processes would corrupt each other's WALs")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableCompactionDuringAppends(t *testing.T) {
	// Compaction merges outside the shard lock; appends (and the segments
	// they roll) that land mid-merge must survive the segment swap.
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, FlushThreshold: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(0, 1)
	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= n; i++ {
			if err := st.Append(testRecord(i, b)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := st.CompactNow(2); err != nil {
				t.Fatal(err)
			}
			got := indexRecords(t, collect(t, st))
			if len(got) != n {
				t.Fatalf("after compaction under appends: %d unique records, want %d", len(got), n)
			}
			return
		default:
			if err := st.CompactNow(2); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestWALRepairAfterUnrecoverableWrite(t *testing.T) {
	// A broken WAL (failed write whose rollback also failed) holds bytes
	// past its acknowledged prefix: torn ones, and possibly a whole window
	// whose fsync failed, which the engine NACKed.  No read path may see
	// them — every one decodes the file's acknowledged prefix and nothing
	// else — and the next append cuts them off and resumes service.
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(0, 2)
	for i := uint64(1); i <= 3; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the failure aftermath: a checksum-clean window that was
	// NACKed (fsync failed after the write) followed by torn bytes, broken
	// set.
	w := st.shards[0].wal
	nacked := testRecord(99, b)
	if _, err := w.f.Write(windowFrame(t, nacked)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.f.Write([]byte{0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	w.broken = true
	absent := func(when string) {
		t.Helper()
		for _, p := range collect(t, st) {
			if p.ID == nacked.ID {
				t.Fatalf("%s: Iterate returns the NACKed record", when)
			}
		}
		for _, p := range drainBatches(t, st, 2) {
			if p.ID == nacked.ID {
				t.Fatalf("%s: ReadBatch streams the NACKed record", when)
			}
		}
		if _, ok, err := st.Lookup(nacked.ID, b.Key()); err != nil || ok {
			t.Fatalf("%s: Lookup of the NACKed record = %v, %v", when, ok, err)
		}
	}
	absent("while broken")
	if err := st.Append(testRecord(4, b)); err != nil {
		t.Fatalf("append after repairable breakage: %v", err)
	}
	if w.broken {
		t.Fatal("wal still marked broken after successful repair")
	}
	absent("after repair")
	if got := indexRecords(t, collect(t, st)); len(got) != 4 {
		t.Fatalf("store has %d unique records after repair, want 4", len(got))
	}
	// The on-disk log must agree: repair physically cut the NACKed window
	// and the torn bytes, so a restart cannot resurrect them either.
	image, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, valid := logRecords(t, image)
	if len(onDisk) != 4 || valid != int64(len(image)) {
		t.Fatalf("on-disk wal holds %d records in %d of %d bytes after repair, want 4 in all of them", len(onDisk), valid, len(image))
	}
	// A roll writes what the log holds and no more.
	sh := st.shards[0]
	sh.mu.Lock()
	err = sh.rollLocked()
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	absent("after the roll")
	if got := collect(t, st); len(got) != 4 {
		t.Fatalf("rolled store has %d records, want 4", len(got))
	}
}

// TestRollSkipsNackedWindow: a window whose append failed after reaching
// the file — and whose rollback failed too — is still in the file when the
// log next rolls.  The roll decodes the acknowledged prefix only.
func TestRollSkipsNackedWindow(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(1, 2)
	if err := st.Append(testRecord(1, b)); err != nil {
		t.Fatal(err)
	}
	sh := st.shards[0]
	if _, err := sh.wal.f.Write(windowFrame(t, testRecord(2, b))); err != nil {
		t.Fatal(err)
	}
	sh.wal.broken = true
	sh.mu.Lock()
	err = sh.rollLocked()
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, st); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("after rolling a log with a NACKed window behind it: %+v, want user 1 alone", got)
	}
	if n := st.Stats().Shards[0].SegmentRecords; n != 1 {
		t.Fatalf("the roll wrote %d records, want 1", n)
	}
}

func TestDurableShardGapFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 4, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A partial restore that lost one shard must fail loudly: silently
	// adopting 3 shards would re-place records under a smaller modulus
	// and never replay the shards above the gap.
	if err := os.RemoveAll(filepath.Join(dir, "shard-0002")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, CompactInterval: -1}); err == nil {
		t.Fatal("Open must refuse a data directory with a shard gap")
	}
}

func TestDurableManifestHealsCrashMidCreation(t *testing.T) {
	// A crash during the first Open can leave only a prefix of the shard
	// directories; the manifest (written before any of them) pins N so
	// the store cannot silently shrink to the prefix.
	dir := t.TempDir()
	if err := writeManifest(dir, 4, manifestFormat, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := os.MkdirAll(filepath.Join(dir, shardDirName(i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(Options{Dir: dir, Shards: 8, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.shards) != 4 {
		t.Fatalf("opened %d shards, want the manifest's 4 (not the 2 on disk or the flag's 8)", len(st.shards))
	}
}

func TestDurableManifestMismatchFailsOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 4, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// More shard directories than the manifest records means the manifest
	// and the data disagree — refuse rather than guess the modulus.
	if err := writeManifest(dir, 2, manifestFormat, false); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, CompactInterval: -1}); err == nil {
		t.Fatal("Open must refuse a directory whose shard count exceeds its manifest")
	}
}

func TestDurableRollFailureBacksOffAndRecovers(t *testing.T) {
	// A shard whose segment writes fail must keep acknowledging appends
	// (the WAL has them), retry the roll only after another threshold of
	// growth, and roll normally once the blockage clears.  The failing
	// state is visible: store_roll_failures_total counts the attempts and
	// store_roll_failing / RollFailing hold at 1 until a roll succeeds.
	dir := t.TempDir()
	reg := obs.NewRegistry()
	metric := func(name string) float64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.RenderText(&sb); err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseText(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			if f.Name == name {
				return f.Samples[0].Value
			}
		}
		t.Fatalf("series %s not rendered", name)
		return 0
	}
	st, err := Open(Options{Dir: dir, Shards: 1, FlushThreshold: 64, CompactInterval: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh := st.shards[0]
	// Block segment writes: a directory where the temp file would go.
	block := filepath.Join(sh.dir, segmentName(1)+".tmp")
	if err := os.MkdirAll(block, 0o755); err != nil {
		t.Fatal(err)
	}
	b := bitvec.MustSubset(0)
	for i := uint64(1); i <= 40; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatalf("Append(%d) during roll blockage: %v", i, err)
		}
	}
	if sh.rollFailedAt == 0 {
		t.Fatal("roll failure not recorded for backoff")
	}
	if n, failing := metric("store_roll_failures_total"), metric("store_roll_failing"); n < 2 || failing != 1 || st.RollFailing() != 1 {
		t.Fatalf("blocked shard: store_roll_failures_total = %v (want one per backed-off retry, ≥ 2), store_roll_failing = %v, RollFailing = %d (want 1)", n, failing, st.RollFailing())
	}
	if st.Stats().Segments() != 0 {
		t.Fatal("segment appeared despite the blocked temp path")
	}
	if got := collect(t, st); len(got) != 40 {
		t.Fatalf("blocked shard serves %d records, want 40", len(got))
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	for i := uint64(41); i <= 120; i++ {
		if err := st.Append(testRecord(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().Segments() == 0 {
		t.Fatal("roll never retried after the blockage cleared")
	}
	if failing := metric("store_roll_failing"); failing != 0 || st.RollFailing() != 0 {
		t.Fatalf("recovered shard still reports store_roll_failing = %v, RollFailing = %d", failing, st.RollFailing())
	}
	if got := collect(t, st); len(got) != 120 {
		t.Fatalf("recovered shard serves %d records, want 120", len(got))
	}
}

// TestSegmentIndexBuiltMatchesParsed: the run directory a roll builds and
// the one Open derives from the file are the same — one entry per subset,
// naming the run by the bytes its frame spans — and none of it is stored:
// the file is its magic, a frame a run and the record count.
func TestSegmentIndexBuiltMatchesParsed(t *testing.T) {
	var records []sketch.Published
	subsets := []bitvec.Subset{bitvec.Range(0, 3), bitvec.Range(0, 10)}
	const perSubset = 10*sketch.IDBlockLen + 7
	for _, b := range subsets {
		for id := uint64(1); id <= perSubset; id++ {
			records = append(records, testRecord(id, b))
		}
	}
	meta := writeTestSegment(t, t.TempDir(), 1, records)
	parsed, err := openSegment(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	// A run's frame is a frame header and the run's header, then eleven
	// blocks of ids 1 apart (a width byte of 0 and a first id:
	// consecutive ids have no differences to code) and 10 bits of key a
	// record (the sketches are ℓ = 10); the next run's frame starts where
	// it ends.
	columns := int64(11*(1+8) + (perSubset*10+7)/8)
	for name, runs := range map[string]segIndex{"built": meta.runs, "parsed": parsed} {
		if len(runs) != len(subsets) {
			t.Fatalf("%s directory: %d runs, want %d", name, len(runs), len(subsets))
		}
		at := int64(len(segMagic))
		for i, r := range runs {
			end := at + int64(walFrameHeader+len(appendRunHeader(nil, subsets[i], perSubset, 10, false))) + columns
			if r.tag != subsets[i].Key() || !r.subset.Equal(subsets[i]) || r.count != perSubset || r.shape != 10 || r.start != at || r.end != end {
				t.Fatalf("%s directory run %d = %+v, want its frame at [%d,%d)", name, i, r, at, end)
			}
			at = r.end
		}
		if runs.records() != uint64(len(records)) {
			t.Fatalf("%s directory counts %d records, want %d", name, runs.records(), len(records))
		}
	}
	if !reflect.DeepEqual(meta.runs, parsed) {
		t.Fatal("built and parsed run directories differ")
	}
	data, err := os.ReadFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(parsed[len(parsed)-1].end) + segFooterSize; len(data) != want {
		t.Fatalf("segment is %d bytes, want %d: the last frame's end and the footer", len(data), want)
	}
	if got := binary.BigEndian.Uint64(data[len(data)-segFooterSize:]); got != uint64(len(records)) {
		t.Fatalf("the footer counts %d records, want %d", got, len(records))
	}
}

// TestSegmentSplitsRunPastFrameBound: a run whose frame would pass the
// writer's bound is cut at id blocks into frames that each stay within
// it, and reads back whole — through Open's scan and a whole-run read —
// as one directory entry spanning all of them.
func TestSegmentSplitsRunPastFrameBound(t *testing.T) {
	b := bitvec.MustSubset(0, 5)
	var records []sketch.Published
	for id := uint64(1); id <= 5*sketch.IDBlockLen+9; id++ {
		records = append(records, testRecord(3*id, b))
	}
	runs := testRuns(records)
	w := newSegWriter(0)
	w.frameBytes = runHeaderSize(b, len(records)) + 2*(1+8+63*2/8+1+80) // two blocks a frame
	w.add(runs[0])
	image, built := w.finish()
	frames := 0
	if end, err := eachFrame(image, len(segMagic), len(image)-segFooterSize, func(_ int, payload []byte) error {
		frames++
		if len(payload) > w.frameBytes {
			return fmt.Errorf("a payload of %d bytes", len(payload))
		}
		return nil
	}); err != nil || end != len(image)-segFooterSize || frames != 3 {
		t.Fatalf("the run is %d frames ending at %d of %d, %v; want 3", frames, end, len(image), err)
	}
	path := filepath.Join(t.TempDir(), segmentName(1))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := openSegment(path)
	if err != nil || !reflect.DeepEqual(parsed, built) || len(parsed) != 1 || parsed[0].count != len(records) {
		t.Fatalf("the split run scans to %+v, built %+v, %v", parsed, built, err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, got, err := readRun(f, parsed[0], nil, sketch.Words{})
	if err != nil || !slices.EqualFunc(got.AppendTo(nil), records, samePub) {
		t.Fatalf("the split run reads as %d records, %v; want %d", got.Len(), err, len(records))
	}
}

// TestLogAndSegmentWriteOneLayout: the log and a segment write a run the
// same way.  Records of four subsets — ids dense, spread, hashed, a subset
// at two lengths, a run past one id block — framed by the log from
// sketch.Published (appendFrameRun) and by the segment writer from their
// columns give every run the same bytes, and the sealed segment reads
// back as the runs the log's replay makes of the same records.
func TestLogAndSegmentWriteOneLayout(t *testing.T) {
	pub := func(id uint64, b bitvec.Subset, key uint64, length int) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: key % (1 << uint(length)), Length: length}}
	}
	var records []sketch.Published
	for i := uint64(1); i <= 150; i++ {
		records = append(records, pub(0x70000000000|i, bitvec.MustSubset(0, 2), i*37, 9))
	}
	for i := uint64(1); i <= 20; i++ {
		records = append(records, pub(0x70000000000|(5*i), bitvec.MustSubset(0, 2), i*40503, 20))
	}
	for i := uint64(0); i < 70; i++ {
		records = append(records, pub(i*0x9E3779B97F4A7C15|1, bitvec.MustSubset(1, 4, 7), i, 9))
	}
	records = append(records, pub(1<<40, bitvec.MustSubset(3), 1, 1), pub(2<<40, bitvec.MustSubset(3), 0, 1))
	runs := testRuns(records)
	image, built := encodeSegment(runs)
	if len(built) != len(runs) || len(runs) != 4 {
		t.Fatalf("%d records make %d runs and a segment of %d, want 4", len(records), len(runs), len(built))
	}
	for i, r := range runs {
		logRun := appendFrameRun(nil, r.AppendTo(nil), false)
		frame := image[built[i].start:built[i].end]
		if segRun := frame[walFrameHeader:]; !bytes.Equal(segRun, logRun) {
			t.Fatalf("run %d (%v at ℓ = %d): the segment writes %x, the log %x", i, r.Subset, r.Keys.Shape(), segRun, logRun)
		}
	}
	var log []byte
	for _, r := range runs {
		var err error
		if log, err = appendFrame(log, r.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
	}
	set := newRunSet()
	if valid, n := scanLog(append(walMagic[:len(walMagic):len(walMagic)], log...), set); valid != int64(len(walMagic)+len(log)) || n != uint64(len(records)) {
		t.Fatalf("the log replays %d of its %d bytes, %d records", valid, len(walMagic)+len(log), n)
	}
	replayed := set.normalized()
	path := filepath.Join(t.TempDir(), segmentName(1))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	scanned, err := openSegment(path)
	if err != nil || !reflect.DeepEqual(scanned, built) {
		t.Fatalf("the segment scans to %+v, %v; built %+v", scanned, err, built)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, r := range scanned {
		_, got, err := readRun(f, r, nil, sketch.Words{})
		if err != nil {
			t.Fatal(err)
		}
		want := replayed[i]
		if r.tag != want.tag || got.Keys.Shape() != want.Keys.Shape() || !slices.EqualFunc(got.AppendTo(nil), want.AppendTo(nil), samePub) {
			t.Fatalf("segment run %d reads as %d records of %v at ℓ = %d, the log's replay as %d of %v at ℓ = %d", i, got.Len(), got.Subset, got.Keys.Shape(), want.Len(), want.Subset, want.Keys.Shape())
		}
		for k := range got.IDs.Blocks() {
			if !bytes.Equal(got.IDs.BlockBytes(k), want.IDs.BlockBytes(k)) {
				t.Fatalf("segment run %d codes id block %d as %x, the log's replay as %x", i, k, got.IDs.BlockBytes(k), want.IDs.BlockBytes(k))
			}
		}
	}
}

// TestReadRunEndsAtTheRunsEnd: a read takes a run by the byte range the
// directory gave it and refuses frames that, checksums and all, end before
// the range does — here a file rewritten under the store, whose run of the
// same subset, length and count holds consecutive ids in a shorter frame.
func TestReadRunEndsAtTheRunsEnd(t *testing.T) {
	b := bitvec.MustSubset(0, 2)
	var spread, dense []sketch.Published
	for id := uint64(1); id <= sketch.IDBlockLen; id++ {
		spread = append(spread, testRecord(3*id, b))
		dense = append(dense, testRecord(id, b), sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: id, Length: 20}})
	}
	meta := writeTestSegment(t, t.TempDir(), 1, spread)
	image, runs := encodeSegment(testRuns(dense))
	if runs[0].start != meta.runs[0].start || runs[0].end >= meta.runs[0].end || int64(len(image)) < meta.runs[0].end {
		t.Fatalf("the rewritten run spans [%d,%d) of %d bytes, the directory's [%d,%d)", runs[0].start, runs[0].end, len(image), meta.runs[0].start, meta.runs[0].end)
	}
	if err := os.WriteFile(meta.path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, got, err := readRun(f, meta.runs[0], nil, sketch.Words{}); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("a run ending %d bytes early read as %d records, %v", meta.runs[0].end-runs[0].end, got.Len(), err)
	}
}

// TestRunHeaderCountBound: a run's count is held against the least its
// columns could occupy — 9 bytes an id block, a block of consecutive ids,
// and the words' bits — so a count its bytes could not hold even so is
// refused, by the header parser and by a log's replay, before anything is
// sized by it, and a count they just hold passes the parser.
func TestRunHeaderCountBound(t *testing.T) {
	b := bitvec.MustSubset(0, 4)
	for _, count := range []int{1, 63, 64, 65, 4097, 1 << 20} {
		least := sketch.MinIDBlocksLen(count) + wordsLen(count, 9)
		if want := 9*((count+63)/64) + (9*count+7)/8; least != want {
			t.Fatalf("%d ids at ℓ = 9 occupy at the least %d bytes, want %d", count, least, want)
		}
		header := appendRunHeader(nil, b, count, 9, false)
		fits := append(bytes.Clone(header), make([]byte, least)...)
		if h, err := parseRunHeader(fits, 0); err != nil || h.count != count {
			t.Fatalf("a count of %d in the %d bytes it needs: %+v, %v", count, least, h, err)
		}
		if _, err := parseRunHeader(fits[:len(fits)-1], 0); err == nil {
			t.Fatalf("a count of %d passes in %d bytes", count, least-1)
		}
		// Sharing the ids of a run before it, the run needs its words alone.
		shared := append(appendRunHeader(nil, b, count, 9, true), make([]byte, wordsLen(count, 9))...)
		if h, err := parseRunHeader(shared, count); err != nil || h.count != count || !h.shared {
			t.Fatalf("a run sharing %d ids in the %d bytes of its words: %+v, %v", count, wordsLen(count, 9), h, err)
		}
		if _, err := parseRunHeader(shared[:len(shared)-1], count); err == nil {
			t.Fatalf("a run sharing %d ids passes in %d bytes", count, wordsLen(count, 9)-1)
		}
		frame := framePayload(b, count, 9, make([]byte, least-1))
		image := binary.BigEndian.AppendUint32(walMagic[:len(walMagic):len(walMagic)], uint32(len(frame)))
		image = append(binary.BigEndian.AppendUint32(image, checksum(frame)), frame...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		valid, records := scanLog(image, newRunSet())
		runtime.ReadMemStats(&after)
		if valid != int64(len(walMagic)) || records != 0 {
			t.Fatalf("a frame claiming %d records in %d bytes replays to %d bytes and %d records", count, least-1, valid, records)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<12 {
			t.Fatalf("refusing a frame claiming %d records allocated %d bytes", count, grew)
		}
	}
}

func TestSegmentHostileCountRejected(t *testing.T) {
	// Crafted segments declaring 2^64-1 records in the footer, or 2^32-1 in
	// a run header whose frame checksum was recomputed, must produce a
	// decode error, not a huge preallocation.
	meta := writeTestSegment(t, t.TempDir(), 1, []sketch.Published{testRecord(1, bitvec.MustSubset(0))})
	clean, err := os.ReadFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	footer := bytes.Clone(clean)
	binary.BigEndian.PutUint64(footer[len(footer)-segFooterSize:], ^uint64(0))
	// The run header's count, 1 in a byte after subset {0} and the shape,
	// made 2⁶⁴−1, the frame's length and checksum computed again.
	const cols = len(segMagic) + walFrameHeader + 2 + 1 + 1
	payload := append(binary.AppendUvarint(append([]byte{1, 0}, 10), ^uint64(0)), clean[cols:len(clean)-segFooterSize]...)
	runHeader := oneRunSegment(payload, 1)
	for name, image := range map[string][]byte{"footer": footer, "run header": runHeader} {
		if err := os.WriteFile(meta.path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := openSegment(meta.path)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("hostile count in the %s: openSegment = %v, want ErrSegmentCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<12 {
			t.Fatalf("refusing a hostile count in the %s allocated %d bytes", name, grew)
		}
	}
}

func TestDurableClosedAppend(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testRecord(1, bitvec.MustSubset(0))); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

func TestMemStoreSemanticsMatchDurable(t *testing.T) {
	b := bitvec.MustSubset(0, 1)
	m := NewMem()
	for i := uint64(1); i <= 5; i++ {
		if _, err := m.AppendBatch([]sketch.Published{testRecord(i, b)}); err != nil {
			t.Fatal(err)
		}
	}
	newer := sketch.Published{ID: 3, Subset: b, S: sketch.Sketch{Key: 999, Length: 10}}
	if failed, err := m.AppendBatch([]sketch.Published{testRecord(5, b), newer}); err != nil || failed != nil {
		t.Fatalf("AppendBatch = %v, %v", failed, err)
	}
	got := indexRecords(t, collect(t, m))
	if len(got) != 5 {
		t.Fatalf("mem store has %d unique records, want 5", len(got))
	}
	if got[keyOf(newer)] != newer.S {
		t.Fatalf("mem store did not keep the newest record")
	}
	if st := m.Stats(); st.Records != 5 {
		t.Fatalf("mem Stats.Records = %d, want 5", st.Records)
	}
}

// TestSubsetAtTwoLengths: the store holds one subset's records of two
// lengths as two runs, deduplicated each on its own, and neither refuses
// nor joins them — in one group, in the log beside a segment, across a
// roll, a compaction and a reopen, which writes no file.  A user holding a record at each length keeps both; Lookup, within
// one file, answers with the shorter.
func TestSubsetAtTwoLengths(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := bitvec.MustSubset(0, 2)
	rec := func(id uint64, length int) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: (id + uint64(length)) % (1 << length), Length: length}}
	}
	var short, long []sketch.Published
	for id := uint64(1); id <= 90; id++ {
		long = append(long, rec(id, 20))
		if id > 60 {
			short = append(short, rec(id, 9))
		}
	}
	// A group of both lengths, then a roll, then lone appends of the short
	// length and the new users' long records into the log.
	var mixed []sketch.Published
	for i := 0; i < 60; i++ {
		mixed = append(mixed, long[i])
		if i < 10 {
			mixed = append(mixed, short[i])
		}
	}
	if _, err := st.AppendBatch(mixed); err != nil {
		t.Fatal(err)
	}
	if err := st.shards[0].rollLocked(); err != nil {
		t.Fatal(err)
	}
	for _, p := range append(slices.Clone(short[10:]), long[60:]...) {
		if err := st.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *Durable, when string) {
		t.Helper()
		var runs []sketch.Run
		if err := st.IterateRuns(func(r sketch.Run) error { runs = append(runs, r); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 || runs[0].Keys.Shape() != 9 || runs[1].Keys.Shape() != 20 {
			t.Fatalf("%s: IterateRuns handed out %d runs, want a 9-bit one and then a 20-bit one", when, len(runs))
		}
		for i, want := range [][]sketch.Published{short, long} {
			if got := runs[i].AppendTo(nil); !slices.EqualFunc(got, want, samePub) {
				t.Fatalf("%s: run %d holds %d records, want the %d of its length", when, i, len(got), len(want))
			}
		}
		if got := collect(t, st); len(got) != len(short)+len(long) {
			t.Fatalf("%s: Iterate yields %d records, want %d", when, len(got), len(short)+len(long))
		}
		for i, p := range long {
			got, ok, err := st.Lookup(p.ID, b.Key())
			if err != nil || !ok || !samePub(got, p) && (i < 60 || !samePub(got, short[i-60])) {
				t.Fatalf("%s: Lookup(%d) = %v, %v, %v", when, p.ID, got, ok, err)
			}
		}
	}
	check(st, "before a compaction")
	if err := st.shards[0].rollLocked(); err != nil {
		t.Fatal(err)
	}
	if err := st.CompactNow(2); err != nil {
		t.Fatalf("compacting a subset held at two lengths: %v", err)
	}
	check(st, "after a roll and a compaction")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)
	if st, err = Open(Options{Dir: dir, CompactInterval: -1}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st, "after a reopen")
	if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the reopen changed the directory: %v, was %v", after, before)
	}
}

// TestSegmentReadPaths: a segment this version writes — four runs, one
// subset's at two lengths, the longest four blocks, ids with gaps between
// them — serves exactly its records on every read path: Iterate, ReadBatch
// from every cursor at every batch size, and Lookup of every id and of ids
// absent below, between and above each run's and under a subset the
// segment does not hold.  So does the store after a second segment —
// newer records for some users, and records at the subset's other length
// for others — is rolled beside it, where Lookup answers from the newest
// file, and after the two are compacted into one, where it answers with
// the shorter length of a user holding both.
func TestSegmentReadPaths(t *testing.T) {
	pub := func(id uint64, b bitvec.Subset, key uint64, length int) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: key % (1 << uint(length)), Length: length}}
	}
	var ps []sketch.Published
	for i := uint64(0); i < 3; i++ {
		ps = append(ps, pub(10+3*i, bitvec.MustSubset(0), i+2, 3))
	}
	for i := uint64(0); i < 200; i++ {
		ps = append(ps, pub(10+3*i, bitvec.MustSubset(1, 4, 7), i*37, 10))
	}
	for i := uint64(0); i < 70; i++ {
		ps = append(ps, pub(11+5*i, bitvec.MustSubset(2, 9), i*11, 9))
	}
	for i := uint64(0); i < 40; i++ {
		ps = append(ps, pub(500+7*i, bitvec.MustSubset(2, 9), i*40503, 20))
	}
	// The second segment: new keys for every fifth user of {1, 4, 7}, and
	// 20-bit records for the first ten users of {2, 9}'s 9-bit run.
	var ps2 []sketch.Published
	for i := uint64(0); i < 200; i += 5 {
		ps2 = append(ps2, pub(10+3*i, bitvec.MustSubset(1, 4, 7), i*37+1, 10))
	}
	for i := uint64(0); i < 10; i++ {
		ps2 = append(ps2, pub(11+5*i, bitvec.MustSubset(2, 9), i*7+3, 20))
	}

	st, err := Open(Options{Dir: t.TempDir(), Shards: 1, FlushThreshold: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// shortest maps each (user, subset) pair of records, which are in
	// (subset, length) order, to its record of the shortest length.
	shortest := func(records []sketch.Published) map[pairKey]sketch.Published {
		m := make(map[pairKey]sketch.Published)
		for _, p := range records {
			if _, ok := m[pairOf(p)]; !ok {
				m[pairOf(p)] = p
			}
		}
		return m
	}
	reads := func(when string, segments int, want []sketch.Published, found map[pairKey]sketch.Published) {
		t.Helper()
		if sh := st.Stats().Shards[0]; sh.Segments != segments || sh.WALRecords != 0 {
			t.Fatalf("%s: %d segments and %d log records, want %d segments and no log record", when, sh.Segments, sh.WALRecords, segments)
		}
		same := func(what string, got, want []sketch.Published) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %s returned %d records, want %d", when, what, len(got), len(want))
			}
			for i := range got {
				if !samePub(got[i], want[i]) {
					t.Fatalf("%s: %s record %d = %+v, want %+v", when, what, i, got[i], want[i])
				}
			}
		}
		same("Iterate", collect(t, st), want)
		for _, max := range []int{1, 7, 64, 65, 1000} {
			for start := 0; start <= len(want); start++ {
				got, next, done, err := st.ReadBatch(uint64(start), max)
				if err != nil {
					t.Fatalf("%s: ReadBatch(%d, %d): %v", when, start, max, err)
				}
				end := min(start+max, len(want))
				same(fmt.Sprintf("ReadBatch(%d, %d)", start, max), got, want[start:end])
				if next != uint64(end) || done != (end == len(want)) {
					t.Fatalf("%s: ReadBatch(%d, %d) = next %d, done %v; want %d, %v", when, start, max, next, done, end, end == len(want))
				}
			}
		}
		var streamed []sketch.Published
		for cursor, done := uint64(0), false; !done; {
			var batch []sketch.Published
			if batch, cursor, done, err = st.ReadBatch(cursor, 50); err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, batch...)
		}
		same("the ReadBatch stream", streamed, want)

		for _, p := range want {
			got, ok, err := st.Lookup(p.ID, p.Subset.Key())
			if w := found[pairOf(p)]; err != nil || !ok || !samePub(got, w) {
				t.Fatalf("%s: Lookup(%v, %v) = %+v %v %v, want %+v", when, p.ID, p.Subset, got, ok, err, w)
			}
		}
		// The two runs of {2, 9} hold ids far apart, or the same ones, so an
		// id absent from one is absent from the other.
		for _, r := range testRuns(want) {
			first, last := r.IDs.At(0), r.IDs.At(r.Len()-1)
			for name, id := range map[string]bitvec.UserID{"below": first - 1, "between": first + 1, "between blocks": r.IDs.At(r.Len()/2) + 1, "above": last + 1} {
				if got, ok, err := st.Lookup(id, r.tag); err != nil || ok {
					t.Fatalf("%s: Lookup of absent id %v (%s the %d-bit run of %v) = %+v %v %v", when, id, name, r.Keys.Shape(), r.Subset, got, ok, err)
				}
			}
		}
		if got, ok, err := st.Lookup(want[0].ID, bitvec.MustSubset(3).Key()); err != nil || ok {
			t.Fatalf("%s: Lookup under a subset the store does not hold = %+v %v %v", when, got, ok, err)
		}
	}

	if _, err := st.AppendBatch(ps); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	want := flatten(testRuns(ps))
	if runs := testRuns(ps); len(runs) != 4 {
		t.Fatalf("the records make %d runs, want 4", len(runs))
	}
	reads("one segment", 1, want, shortest(want))

	if _, err := st.AppendBatch(ps2); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	found := shortest(want)
	for pair, p := range shortest(flatten(testRuns(ps2))) {
		found[pair] = p // the newest file answers, whatever its length
	}
	want = flatten(testRuns(append(slices.Clone(ps), ps2...)))
	reads("after a roll", 2, want, found)

	if err := st.CompactNow(2); err != nil {
		t.Fatal(err)
	}
	reads("after a compaction", 1, want, shortest(want))
}

// TestManifestFormats: readManifest takes the v8 marker, the v7 one and
// v8-converting — a directory Open converts, and one whose conversion is
// under way — and none — a new directory, or one from before v3, which
// Open refuses if it holds data — refuses an older version's markers (v3,
// v4, v5, v6, and v5-converting, v6-converting and v7-converting, the
// marks of a conversion to v5, v6 or v7 under way) with ErrFormatTooOld,
// naming the marker, and refuses every other as corrupt, as an older
// binary refuses v8: a directory is never opened by a version that cannot
// read all of it.
func TestManifestFormats(t *testing.T) {
	write := func(t *testing.T, line string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for line, want := range map[string]string{"3 v8\n": "v8", "3 v7\n": "v7", "3 v8-converting\n": "v8-converting", "3\n": ""} {
		if n, format, err := readManifest(write(t, line)); err != nil || n != 3 || format != want {
			t.Fatalf("readManifest(%q) = %d, %q, %v; want 3, %q", line, n, format, err, want)
		}
	}
	for _, line := range []string{"3 v3\n", "3 v4\n", "3 v5\n", "3 v6\n", "3 v5-converting\n", "3 v6-converting\n", "3 v7-converting\n"} {
		if n, format, err := readManifest(write(t, line)); !errors.Is(err, ErrFormatTooOld) || !strings.Contains(err.Error(), strings.Fields(line)[1]) {
			t.Fatalf("readManifest(%q) = %d, %q, %v: want ErrFormatTooOld naming the marker", line, n, format, err)
		}
	}
	for _, line := range []string{"3 v9\n", "3 v2\n", "3 v7-done\n", "3 v8 v8\n", "v8\n", "0 v8\n"} {
		if n, format, err := readManifest(write(t, line)); err == nil || errors.Is(err, ErrFormatTooOld) {
			t.Fatalf("readManifest(%q) = %d, %q, %v: want a corrupt manifest", line, n, format, err)
		}
	}
}

// TestCleanV8DirOpensWithoutWrites: a directory holding each subset at one
// length — segments, a log with frames in it, a manifest — opens as it
// is: Open and Close, with and without fsync, leave every file's bytes and
// modification time as they were, and create no file.
func TestCleanV8DirOpensWithoutWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 2, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	var all []sketch.Published
	for round := uint64(0); round < 3; round++ {
		for _, b := range []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(1, 2)} {
			batch := testRecordsRange(100*round, 100*round+60, b)
			if _, err := st.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
		}
		if round < 2 {
			for _, sh := range st.shards {
				sh.mu.Lock()
				err := sh.rollLocked()
				sh.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	files := make(map[string][]byte)
	if err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		if files[path], err = os.ReadFile(path); err != nil {
			return err
		}
		return os.Chtimes(path, past, past)
	}); err != nil {
		t.Fatal(err)
	}
	want := flatten(testRuns(all))
	for _, fsync := range []bool{false, true} {
		st, err := Open(Options{Dir: dir, Fsync: fsync, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		requireServes(t, st, want)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		seen := 0
		if err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			seen++
			info, err := e.Info()
			if err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if was, ok := files[path]; err != nil || !ok || !bytes.Equal(data, was) || !info.ModTime().Equal(past) {
				t.Fatalf("Open and Close (fsync %v) of a clean v8 directory touched %s: %d bytes, modified %v (%v)", fsync, path, len(data), info.ModTime(), err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if seen != len(files) {
			t.Fatalf("Open and Close (fsync %v) left %d files, there were %d", fsync, seen, len(files))
		}
	}
}

// requireServes fails the test unless st serves exactly want — the
// newest-wins record set — through IterateRuns, Iterate, a ReadBatch
// stream and Lookup of every record.
func requireServes(t *testing.T, st *Durable, want []sketch.Published) {
	t.Helper()
	same := func(what string, got []sketch.Published) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s returned %d records, the directory holds %d", what, len(got), len(want))
		}
		for i := range got {
			if !samePub(got[i], want[i]) {
				t.Fatalf("%s record %d = %+v, the directory holds %+v", what, i, got[i], want[i])
			}
		}
	}
	same("IterateRuns", collect(t, st))
	var iterated []sketch.Published
	if err := st.Iterate(func(p sketch.Published) error { iterated = append(iterated, p); return nil }); err != nil {
		t.Fatal(err)
	}
	same("Iterate", iterated)
	streamed := coverage(drainBatches(t, st, 7))
	if len(streamed) != len(want) {
		t.Fatalf("ReadBatch streamed %d distinct records, the directory holds %d", len(streamed), len(want))
	}
	// A (user, subset) pair may hold a record at each of two lengths, of
	// which Lookup answers with one.
	held := make(map[pairKey][]sketch.Published)
	for _, p := range want {
		held[pairOf(p)] = append(held[pairOf(p)], p)
	}
	for _, p := range want {
		got, ok, err := st.Lookup(p.ID, p.Subset.Key())
		if err != nil || !ok || !slices.ContainsFunc(held[pairOf(p)], func(q sketch.Published) bool { return samePub(got, q) }) {
			t.Fatalf("Lookup(%v, %v) = %+v %v %v, the directory holds %+v", p.ID, p.Subset, got, ok, err, held[pairOf(p)])
		}
		// The stream may pass an older copy on its way to the newest.
		if got := streamed[keyOf(p)]; !samePub(got, p) {
			t.Fatalf("ReadBatch ends on %+v for %v, the directory holds %+v", got, keyOf(p), p)
		}
	}
}

// pairKey is a (user, subset) pair, whatever the length.
type pairKey struct {
	id     bitvec.UserID
	subset string
}

func pairOf(p sketch.Published) pairKey { return pairKey{p.ID, p.Subset.Key()} }

// dirState returns the bytes and the modification time of every file
// under dir, and names every directory.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			state[path] = "directory"
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		state[path] = fmt.Sprintf("%x@%v", data, info.ModTime().UnixNano())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestReadRunReservesItsIDs bounds what reading a run allocates: a dense
// 12 500-record run at ℓ = 9, its read buffer and its words reused, costs
// its id column (196 blocks, 3.3 kB, built in room the size of its frames'
// id columns, the short last block taken as it stands) and their offsets
// (1.6 kB) — 5.2 kB, the same under -race.  Its words (14 kB) are read into
// the last read's array: were it new each time, the race build's
// slices.Grow would allocate it twice over (19.6 kB a read plain, 33.9 kB
// under -race).
func TestReadRunReservesItsIDs(t *testing.T) {
	b := bitvec.MustSubset(0, 2)
	var records []sketch.Published
	for i := uint64(0); i < 12_500; i++ {
		id := 7<<40 | (1 + 3*i/2)
		records = append(records, sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: id % 512, Length: 9}})
	}
	meta := writeTestSegment(t, t.TempDir(), 1, records)
	f, err := os.Open(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, got, err := readRun(f, meta.runs[0], nil, sketch.Words{})
	if err != nil || !slices.EqualFunc(got.AppendTo(nil), records, samePub) {
		t.Fatalf("the run reads as %d records, %v; want %d", got.Len(), err, len(records))
	}
	const reads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		if raw, got, err = readRun(f, meta.runs[0], raw, got.Keys); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("a read of %d records allocates %d bytes", len(records), perRead)
	if perRead > 5_510 {
		t.Errorf("a read of %d records allocates %d bytes, want ≤ 5510: its id column, built once", len(records), perRead)
	}
}
