package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

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
	valid, _, _ := scanLog(image, set)
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

// TestDurableCorruptSegmentFailsOpen pins the integrity contract:
// corruption in the data area — a record's bytes or a run's header — fails
// Open loudly (the open-time walk verifies every checksum), while damage to
// what no reader reads — the footer's section checksum, or the index
// directory an older binary stored beside the data — changes nothing: the
// store opens and returns the exact records.
func TestDurableCorruptSegmentFailsOpen(t *testing.T) {
	setup := func(t *testing.T) string {
		dir := t.TempDir()
		st, err := Open(Options{Dir: dir, Shards: 1, FlushThreshold: 1, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(testRecord(1, bitvec.MustSubset(0))); err != nil {
			t.Fatal(err)
		}
		stats := st.Stats()
		if stats.Segments() != 1 {
			t.Fatalf("setup wanted 1 segment, got %d", stats.Segments())
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	corrupt := func(t *testing.T, dir string, at func(data []byte) int) {
		seg := filepath.Join(dir, "shard-0000", segmentName(1))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[at(data)] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The one run's header starts the data area; its first block follows the
	// header (a 16-byte tag) and the header's checksum.
	const firstBlock = segHeaderSize + runHeaderFixed + 16 + 4
	t.Run("record frame", func(t *testing.T) {
		dir := setup(t)
		corrupt(t, dir, func([]byte) int { return firstBlock }) // the record's id
		if _, err := Open(Options{Dir: dir, CompactInterval: -1}); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("Open of a segment with a corrupt record = %v, want ErrSegmentCorrupt", err)
		}
	})
	t.Run("run header", func(t *testing.T) {
		dir := setup(t)
		corrupt(t, dir, func([]byte) int { return segHeaderSize + 4 }) // a tag byte
		if _, err := Open(Options{Dir: dir, CompactInterval: -1}); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("Open of a segment with a corrupt run header = %v, want ErrSegmentCorrupt", err)
		}
	})
	for name, tc := range map[string]struct {
		parentWritten bool
		at            func(data []byte) int
	}{
		// A byte of the footer's section checksum, and one of the directory
		// in the section of a segment the parent commit wrote: the reader
		// derives its index from the data area and skips both.
		"index footer":    {false, func(data []byte) int { return len(data) - segFooterSize }},
		"index directory": {true, func(data []byte) int { return int(binary.BigEndian.Uint64(data[len(data)-8:])) + 5 }},
	} {
		t.Run(name, func(t *testing.T) {
			dir := setup(t)
			want := []sketch.Published{testRecord(1, bitvec.MustSubset(0))}
			if tc.parentWritten {
				image, runs := readParentFixture(t)
				if err := os.WriteFile(filepath.Join(dir, "shard-0000", segmentName(1)), image, 0o644); err != nil {
					t.Fatal(err)
				}
				// Under the manifest its binary wrote: Open converts it.
				if err := writeManifest(dir, 1, "v3", false); err != nil {
					t.Fatal(err)
				}
				want = flatten(runs)
			}
			corrupt(t, dir, tc.at)
			st, err := Open(Options{Dir: dir, CompactInterval: -1})
			if err != nil {
				t.Fatalf("damage outside the data area must not fail open: %v", err)
			}
			defer st.Close()
			got := collect(t, st)
			if len(got) != len(want) {
				t.Fatalf("read %d records, want %d", len(got), len(want))
			}
			for i, p := range want {
				if !samePub(got[i], p) {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], p)
				}
				if l, ok, err := st.Lookup(p.ID, p.Subset.Key()); err != nil || !ok || l.S != p.S {
					t.Fatalf("lookup of %v = %+v %v %v", p.ID, l, ok, err)
				}
			}
		})
	}
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

// TestSegmentIndexBuiltMatchesParsed: the index a roll builds and the one
// Open derives from the file are the same — one directory entry per
// subset, naming the run by where it starts, and one first id per block —
// and none of it is stored: the file ends at its data area's footer.
func TestSegmentIndexBuiltMatchesParsed(t *testing.T) {
	var records []sketch.Published
	subsets := []bitvec.Subset{bitvec.Range(0, 3), bitvec.Range(0, 10)}
	const perSubset = 10*segBlockRecords + 7
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
	for name, idx := range map[string]*segIndex{"built": meta.idx, "parsed": parsed} {
		if len(idx.runs) != len(subsets) || len(idx.firstIDs) != len(subsets)*11 {
			t.Fatalf("%s index: %d runs and %d blocks, want %d and %d", name, len(idx.runs), len(idx.firstIDs), len(subsets), len(subsets)*11)
		}
		for i, r := range idx.runs {
			if r.tag != subsets[i].Key() || !r.subset.Equal(subsets[i]) || r.count != perSubset || r.first != i*perSubset || r.block0 != i*11 {
				t.Fatalf("%s index run %d = %+v", name, i, r)
			}
		}
		if idx.records() != uint64(len(records)) {
			t.Fatalf("%s index counts %d records, want %d", name, idx.records(), len(records))
		}
	}
	if !reflect.DeepEqual(meta.idx, parsed) {
		t.Fatal("built and parsed indexes differ")
	}
	// 2 run headers, per run ten full blocks of ids 1 apart (a width byte, a
	// first id, 63 one-byte differences) and one of 7, 10 bits of key a
	// record (the sketches are ℓ = 10: 80 bytes a full block), 22 block
	// sums and the two fixed ends.
	data, err := os.ReadFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	areaEnd := int(binary.BigEndian.Uint64(data[len(data)-8:]))
	if areaEnd != len(data)-segFooterSize {
		t.Fatalf("%d bytes between the data area and the footer, want none", len(data)-segFooterSize-areaEnd)
	}
	headers := 0
	for _, b := range subsets {
		headers += runHeaderFixed + b.TagLen() + 4
	}
	ids := 10*(1+8+63) + (1 + 8 + 6)
	if want := segHeaderSize + headers + len(subsets)*(ids+(perSubset*10+7)/8) + 22*4 + segFooterSize; len(data) != want {
		t.Fatalf("segment is %d bytes, want %d", len(data), want)
	}
}

func TestSegmentHostileCountRejected(t *testing.T) {
	// Crafted segments declaring 2^64-1 records in the header, or 2^32-1 in
	// a run header whose checksum was recomputed, must produce a decode
	// error, not a huge preallocation.
	meta := writeTestSegment(t, t.TempDir(), 1, []sketch.Published{testRecord(1, bitvec.MustSubset(0))})
	clean, err := os.ReadFile(meta.path)
	if err != nil {
		t.Fatal(err)
	}
	header := bytes.Clone(clean)
	binary.BigEndian.PutUint64(header[len(segMagic):], ^uint64(0))
	runHeader := bytes.Clone(clean)
	const countAt = segHeaderSize + 4 + 16 // past the tag length and the tag
	binary.BigEndian.PutUint32(runHeader[countAt:], ^uint32(0))
	binary.BigEndian.PutUint32(runHeader[countAt+5:], checksum(runHeader[segHeaderSize:countAt+5]))
	for name, image := range map[string][]byte{"segment header": header, "run header": runHeader} {
		if err := os.WriteFile(meta.path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openSegment(meta.path); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("hostile count in the %s: openSegment = %v, want ErrSegmentCorrupt", name, err)
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
// roll, a compaction and a reopen, which converts nothing and writes no
// file.  A user holding a record at each length keeps both; Lookup, within
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

// dirState returns the bytes and the modification time of every file
// under dir.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
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
