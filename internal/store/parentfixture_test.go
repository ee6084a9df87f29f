package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// parentFixturePath is a v3 segment written by the commit before the
// stored index section and the bloom filter were deleted — by its
// encodeSegment over parentFixtureRecords — so it holds 8-byte ids and
// ends in a directory, a sparse index and a bloom under a checksummed
// footer.
const parentFixturePath = "testdata/seg-parent-v3.seg"

// parentFixtureRecords are the fixture's records: three subsets, one run
// of 1-byte sketch words and two of 2-byte ones, the longest spanning four
// blocks, ids with gaps between them.
func parentFixtureRecords() []sketch.Published {
	var ps []sketch.Published
	for i := uint64(0); i < 3; i++ {
		ps = append(ps, sketch.Published{ID: bitvec.UserID(10 + 3*i), Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: i + 2, Length: 3}})
	}
	for i := uint64(0); i < 200; i++ {
		ps = append(ps, sketch.Published{ID: bitvec.UserID(10 + 3*i), Subset: bitvec.MustSubset(1, 4, 7), S: sketch.Sketch{Key: i * 37 % 1024, Length: 10}})
	}
	for i := uint64(0); i < 70; i++ {
		ps = append(ps, sketch.Published{ID: bitvec.UserID(11 + 5*i), Subset: bitvec.MustSubset(2, 9), S: sketch.Sketch{Key: i * 11 % 512, Length: 9}})
	}
	return ps
}

// readParentFixture returns the fixture's bytes and the runs it holds.
func readParentFixture(tb testing.TB) ([]byte, []run) {
	tb.Helper()
	image, err := os.ReadFile(parentFixturePath)
	if err != nil {
		tb.Fatal(err)
	}
	return image, testRuns(parentFixtureRecords())
}

// TestParentWrittenSegmentOpens: a data directory whose segment an older
// binary wrote — index section, bloom and all — opens, and every read path
// returns exactly its records: Iterate, ReadBatch from every cursor, and
// Lookup of every id and of ids that are absent below, between and above a
// run's and under a subset the segment does not hold.  The file is read
// where it lies — Open rewrites no v3 segment — and a segment written here
// from the same records is a v4 one a third its size.
func TestParentWrittenSegmentOpens(t *testing.T) {
	image, runs := readParentFixture(t)
	want := flatten(runs)

	dir := t.TempDir()
	shard := filepath.Join(dir, shardDirName(0))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, segmentName(1)), image, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("1 v3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("a segment the parent commit wrote does not open: %v", err)
	}
	defer st.Close()

	same := func(what string, got []sketch.Published) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s returned %d records, the fixture holds %d", what, len(got), len(want))
		}
		for i := range got {
			if !samePub(got[i], want[i]) {
				t.Fatalf("%s record %d = %+v, the fixture holds %+v", what, i, got[i], want[i])
			}
		}
	}
	same("Iterate", collect(t, st))
	for _, max := range []int{1, 7, 64, 65, 1000} {
		for start := range want {
			cursor := packCursor(batchCursor{phase: curPhaseSeg, seq: 1, off: uint64(start)})
			got, _, _, err := st.ReadBatch(cursor, max)
			if err != nil {
				t.Fatalf("ReadBatch(%d, %d): %v", start, max, err)
			}
			if end := min(start+max, len(want)); len(got) != end-start || !samePub(got[0], want[start]) || !samePub(got[len(got)-1], want[end-1]) {
				t.Fatalf("ReadBatch(%d, %d) returned %d records, want the fixture's [%d,%d)", start, max, len(got), start, end)
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
	same("the ReadBatch stream", streamed)

	for _, p := range want {
		got, ok, err := st.Lookup(p.ID, p.Subset.Key())
		if err != nil || !ok || !samePub(got, p) {
			t.Fatalf("Lookup(%v, %v) = %+v %v %v, the fixture holds %+v", p.ID, p.Subset, got, ok, err, p)
		}
	}
	for _, r := range runs {
		first, last := r.IDs.At(0), r.IDs.At(r.Len()-1)
		for name, id := range map[string]bitvec.UserID{"below": first - 1, "between": first + 1, "between blocks": r.IDs.At(r.Len()/2) + 1, "above": last + 1} {
			if got, ok, err := st.Lookup(id, r.tag); err != nil || ok {
				t.Fatalf("Lookup of absent id %v (%s the run of %v) = %+v %v %v", id, name, r.Subset, got, ok, err)
			}
		}
	}
	if got, ok, err := st.Lookup(want[0].ID, bitvec.MustSubset(3).Key()); err != nil || ok {
		t.Fatalf("Lookup under a subset the segment does not hold = %+v %v %v", got, ok, err)
	}

	// The parent's file is as it was, and what is written now of the same
	// records is v4: the ids 3 and 5 apart take a byte each, not 8.
	if onDisk, err := os.ReadFile(filepath.Join(shard, segmentName(1))); err != nil || !bytes.Equal(onDisk, image) {
		t.Fatalf("Open rewrote the parent's segment (%v)", err)
	}
	fresh, _ := encodeSegment(runs)
	if [8]byte(fresh[:8]) != segMagic || [8]byte(image[:8]) != segMagicV3 {
		t.Fatalf("a segment written here opens with %q, the parent's with %q", fresh[:8], image[:8])
	}
	if len(fresh) > len(image)/3 {
		t.Fatalf("a segment written here is %d bytes, the parent's %d: want under a third", len(fresh), len(image))
	}
	if _, err := walkSegment(fresh, "fresh"); err != nil {
		t.Fatal(err)
	}
}

// parentDirPath is a data directory of one shard written by the parent
// commit, the last to write format v3: a manifest reading "1 v3", a v3
// segment of parentDirSegment's records, and a v3 log of parentDirFrames'
// seven AppendBatch frames.
const parentDirPath = "testdata/dir-parent-v3"

// parentDirSegment are the records the fixture's segment holds: a run of
// fleet-shaped ids — a tenant's tag above two of every three user numbers
// — and a run of hashed ones.
func parentDirSegment() []sketch.Published {
	var ps []sketch.Published
	tenant := uint64(5) << 40
	for i := uint64(0); i < 300; i++ {
		ps = append(ps, sketch.Published{ID: bitvec.UserID(tenant | (1 + 3*i/2)), Subset: bitvec.MustSubset(1, 4, 7), S: sketch.Sketch{Key: i * 37 % 512, Length: 9}})
	}
	for i := uint64(0); i < 70; i++ {
		ps = append(ps, sketch.Published{ID: bitvec.UserID(i*0x9E3779B97F4A7C15 | 1), Subset: bitvec.MustSubset(2, 9), S: sketch.Sketch{Key: i * 11 % 1024, Length: 10}})
	}
	return ps
}

// parentDirFrames are the groups appended to the fixture's log after the
// segment was rolled, one frame each: five of three interleaved subsets in
// descending id order, overwriting records of the segment; a lone record
// overwriting another; and a frame overwriting records of the first.
func parentDirFrames() [][]sketch.Published {
	tenant := uint64(5) << 40
	var frames [][]sketch.Published
	for f := uint64(0); f < 5; f++ {
		var ps []sketch.Published
		for i := uint64(0); i < 40; i++ {
			id := tenant | (400 + 97*f - 2*i)
			ps = append(ps, sketch.Published{ID: bitvec.UserID(id), Subset: bitvec.MustSubset(1, 4, 7), S: sketch.Sketch{Key: (id + f) % 512, Length: 9}})
			if i%2 == 0 {
				ps = append(ps, sketch.Published{ID: bitvec.UserID(id), Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: i % 8, Length: 3}})
			}
			if i%5 == 0 {
				ps = append(ps, sketch.Published{ID: bitvec.UserID((i+f)*0x9E3779B97F4A7C15 | 1), Subset: bitvec.MustSubset(2, 9), S: sketch.Sketch{Key: 1000 + f, Length: 10}})
			}
		}
		frames = append(frames, ps)
	}
	frames = append(frames, []sketch.Published{{ID: bitvec.UserID(tenant | 1), Subset: bitvec.MustSubset(1, 4, 7), S: sketch.Sketch{Key: 511, Length: 9}}})
	frames = append(frames, []sketch.Published{
		{ID: bitvec.UserID(tenant | 400), Subset: bitvec.MustSubset(1, 4, 7), S: sketch.Sketch{Key: 7, Length: 9}},
		{ID: bitvec.UserID(tenant | 398), Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: 7, Length: 3}},
		{ID: bitvec.UserID(tenant | 398), Subset: bitvec.MustSubset(1, 4, 7), S: sketch.Sketch{Key: 8, Length: 9}},
	})
	return frames
}

// TestParentWrittenV3DirOpens is the upgrade gate: the directory the
// parent commit wrote opens under this one, which (1) serves exactly its
// newest-wins record set through IterateRuns, Iterate, Lookup and
// ReadBatch, (2) leaves no v3 log behind — its records are segment 2, v4,
// beside the v3 segment read where it lies — and a manifest reading
// "1 v4", which a v3 binary refuses, (3) does nothing on a second Open,
// (4) loses nothing to a crash at any step of the roll, and (5) merges the
// v3 segment away at the first compaction.
func TestParentWrittenV3DirOpens(t *testing.T) {
	// Oldest first: testRuns keeps the last of a repeated pair.
	all := parentDirSegment()
	for _, frame := range parentDirFrames() {
		all = append(all, frame...)
	}
	wantRuns := testRuns(all)
	want := flatten(wantRuns)

	build := func(t *testing.T) (dir, shard string) {
		dir = t.TempDir()
		shard = filepath.Join(dir, shardDirName(0))
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{manifestName, filepath.Join(shardDirName(0), walName), filepath.Join(shardDirName(0), segmentName(1))} {
			data, err := os.ReadFile(filepath.Join(parentDirPath, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir, shard
	}
	// check opens dir, requires the record set on every read path and the
	// formats on disk — the log v4 and empty, segment 1 the parent's v3 one
	// untouched, every later segment v4 — runs then on the open store, and
	// returns every file's identity.
	check := func(t *testing.T, dir string, then func(st *Durable)) map[string]os.FileInfo {
		t.Helper()
		st, err := Open(Options{Dir: dir, CompactInterval: -1})
		if err != nil {
			t.Fatalf("the directory the parent commit wrote does not open: %v", err)
		}
		defer st.Close()
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
		for _, p := range want {
			if got, ok, err := st.Lookup(p.ID, p.Subset.Key()); err != nil || !ok || !samePub(got, p) {
				t.Fatalf("Lookup(%v, %v) = %+v %v %v, the directory holds %+v", p.ID, p.Subset, got, ok, err, p)
			}
			// The stream may pass an older copy on its way to the newest.
			if got := streamed[keyOf(p)]; !samePub(got, p) {
				t.Fatalf("ReadBatch ends on %+v for %v, the directory holds %+v", got, keyOf(p), p)
			}
		}
		if then != nil {
			then(st)
		}
		files := make(map[string]os.FileInfo)
		shard := filepath.Join(dir, shardDirName(0))
		entries, err := os.ReadDir(shard)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			path := filepath.Join(shard, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			magic := segMagic
			if seq, ok := parseSegmentName(e.Name()); e.Name() == walName {
				magic = walMagic
				if then == nil && len(data) != len(walMagic) {
					t.Fatalf("the log is %d bytes after the upgrade, want its magic alone", len(data))
				}
			} else if !ok {
				t.Fatalf("stray file %s after the upgrade", path)
			} else if seq == 1 && then == nil {
				magic = segMagicV3
			}
			if len(data) < 8 || [8]byte(data[:8]) != magic {
				t.Fatalf("%s opens with %q after the upgrade, want %q", path, data[:min(8, len(data))], magic)
			}
			if files[path], err = e.Info(); err != nil {
				t.Fatal(err)
			}
		}
		manifest := filepath.Join(dir, manifestName)
		if data, err := os.ReadFile(manifest); err != nil || string(data) != "1 v4\n" {
			t.Fatalf("manifest after the upgrade = %q, %v", data, err)
		}
		if files[manifest], err = os.Stat(manifest); err != nil {
			t.Fatal(err)
		}
		return files
	}

	t.Run("upgrade once", func(t *testing.T) {
		dir, _ := build(t)
		first := check(t, dir, nil)
		if len(first) != 4 {
			t.Fatalf("%d files after the upgrade, want the parent's segment, the log's segment, the log and the manifest", len(first))
		}
		second := check(t, dir, nil)
		for path, info := range first {
			if again, ok := second[path]; !ok || !os.SameFile(info, again) || !info.ModTime().Equal(again.ModTime()) {
				t.Fatalf("a second Open rewrote %s", path)
			}
		}
		if len(second) != len(first) {
			t.Fatalf("a second Open left %d files, the first %d", len(second), len(first))
		}
	})
	t.Run("a v3 binary refuses the directory", func(t *testing.T) {
		// What the parent's readManifest does with the line: a second field
		// must read v3.  It must fail, or that binary would go on to take the
		// v4 log for a torn one of its own and truncate it.
		dir, _ := build(t)
		check(t, dir, nil)
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if fields := strings.Fields(string(data)); len(fields) == 1 || (len(fields) == 2 && fields[1] == "v3") {
			t.Fatalf("manifest %q still parses under a v3 binary", data)
		}
	})
	t.Run("crash after the manifest", func(t *testing.T) {
		dir, _ := build(t)
		if err := writeManifest(dir, 1, false); err != nil {
			t.Fatal(err)
		}
		check(t, dir, nil)
	})
	t.Run("crash while the log's segment was written", func(t *testing.T) {
		dir, shard := build(t)
		image, _ := encodeSegment(wantRuns)
		if err := os.WriteFile(filepath.Join(shard, segmentName(2)+".tmp"), image[:len(image)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, nil)
	})
	for name, tornLog := range map[string]bool{
		"crash with the log's segment in place and the v3 log still there": false,
		"crash with the new log half written":                              true,
	} {
		t.Run(name, func(t *testing.T) {
			// The roll's segment is in place and the v3 log still is: the next
			// Open rolls the log again, and the two copies deduplicate.
			dir, shard := build(t)
			var logged []sketch.Published
			for _, frame := range parentDirFrames() {
				logged = append(logged, frame...)
			}
			writeTestSegment(t, shard, 2, logged)
			if tornLog {
				if err := os.WriteFile(filepath.Join(shard, walName+".tmp"), walMagic[:5], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if files := check(t, dir, nil); len(files) != 5 {
				t.Fatalf("%d files after the second roll, want three segments, the log and the manifest", len(files))
			}
		})
	}
	t.Run("compaction merges the v3 segment away", func(t *testing.T) {
		dir, _ := build(t)
		files := check(t, dir, func(st *Durable) {
			if err := st.CompactNow(2); err != nil {
				t.Fatal(err)
			}
		})
		if len(files) != 3 {
			t.Fatalf("%d files after the compaction, want one segment, the log and the manifest", len(files))
		}
		check(t, dir, func(*Durable) {})
	})
}

// TestLoneV3SegmentOutlivesCompaction pins why the v3 reader cannot go by
// the calendar: a shard that holds ONE v3 segment keeps it for ever.  A
// compaction needs two segments to merge (compact clamps its threshold to
// 2, the background loop's is DefaultCompactThreshold), so nothing rewrites
// a lone one — it is read where it lies by every later Open, under a
// manifest that already says v4.  The precondition for deleting v3.go is an
// Open that rewrites every v3 file it finds, shipped one release earlier
// (doc.go "Older formats").
func TestLoneV3SegmentOutlivesCompaction(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, shardDirName(0))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	// The fixture without its log: a shard whose last act under the v3
	// binary was a roll.
	for _, name := range []string{manifestName, filepath.Join(shardDirName(0), segmentName(1))} {
		data, err := os.ReadFile(filepath.Join(parentDirPath, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := flatten(testRuns(parentDirSegment()))
	replays := func(st *Durable) {
		t.Helper()
		got := collect(t, st)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, the segment holds %d", len(got), len(want))
		}
		for i := range got {
			if !samePub(got[i], want[i]) {
				t.Fatalf("record %d = %+v, the segment holds %+v", i, got[i], want[i])
			}
		}
	}
	segment := filepath.Join(shard, segmentName(1))
	before, err := os.Stat(segment)
	if err != nil {
		t.Fatal(err)
	}

	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	replays(st)
	if err := st.CompactNow(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(Options{Dir: dir, CompactInterval: -1}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	replays(st)

	data, err := os.ReadFile(segment)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(segment)
	if err != nil {
		t.Fatal(err)
	}
	if [8]byte(data[:8]) != segMagicV3 || !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatalf("the lone v3 segment was rewritten (magic %q)", data[:8])
	}
	if segs, err := filepath.Glob(filepath.Join(shard, "seg-*")); err != nil || len(segs) != 1 {
		t.Fatalf("segments after Open, CompactNow(1), Close, Open: %v, %v", segs, err)
	}
	if m, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(m) != "1 v4\n" {
		t.Fatalf("manifest = %q, %v: the v3 segment should lie under a manifest that says v4", m, err)
	}
}
