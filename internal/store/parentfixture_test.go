package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

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
// binary wrote — index section, bloom and all — is converted by Open, and
// every read path returns exactly its records: Iterate, ReadBatch from
// every cursor, and Lookup of every id and of ids that are absent below,
// between and above a run's and under a subset the segment does not hold.
// The file is rewritten in place as the v5 segment of the same records, a
// third its size or less, under a manifest that says v5.
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

	// The parent's file is now the v5 segment of the same records: the ids 3
	// and 5 apart take a byte each, not 8, and the keys their ℓ bits.
	onDisk, err := os.ReadFile(filepath.Join(shard, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := encodeSegment(runs)
	if !bytes.Equal(onDisk, fresh) || [8]byte(image[:8]) != segMagicV3 {
		t.Fatalf("Open left a %d-byte segment opening with %q where the v5 one of the parent's records is %d bytes", len(onDisk), onDisk[:min(8, len(onDisk))], len(fresh))
	}
	if len(fresh) > len(image)/3 {
		t.Fatalf("the converted segment is %d bytes, the parent's %d: want a third or less", len(fresh), len(image))
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(data) != "1 v5\n" {
		t.Fatalf("manifest after the conversion = %q, %v", data, err)
	}
}

// parentDirPath is a data directory of one shard written by the commit
// that last wrote format v3: a manifest reading "1 v3", a v3 segment of
// parentDirSegment's records, and a v3 log of parentDirFrames' seven
// AppendBatch frames.
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

// parentV4DirPath is a data directory of one shard written by the commit
// that last wrote format v4, from parentV4DirGroups: a manifest reading
// "1 v4", segment 1 rolled from the first group, segment 2 from the
// second, and a log of the third group's frame and the fourth's lone
// record.
const parentV4DirPath = "testdata/dir-parent-v4"

// parentV4DirGroups are the groups the v4 fixture's shard was given,
// oldest first: keys of ℓ = 9, 17 and 30 under fleet-shaped and hashed
// ids; then overwrites of the 9-bit run and a run of mixed lengths (9 and
// 17: whole words); then a batch of three subsets in descending id order,
// overwriting records of both segments; then one record, overwriting one
// of the first segment's.
func parentV4DirGroups() [][]sketch.Published {
	tenant := uint64(7) << 40
	s9, s17, s30, mixed := bitvec.MustSubset(1, 4, 7), bitvec.MustSubset(2, 9), bitvec.MustSubset(0), bitvec.MustSubset(3, 5)
	pub := func(id uint64, b bitvec.Subset, key uint64, length int) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: key % (1 << uint(length)), Length: length}}
	}
	var seg1, seg2, batch []sketch.Published
	for i := uint64(0); i < 300; i++ {
		seg1 = append(seg1, pub(tenant|(1+3*i/2), s9, i*37, 9))
	}
	for i := uint64(0); i < 70; i++ {
		seg1 = append(seg1, pub(i*0x9E3779B97F4A7C15|1, s17, i*40503, 17))
	}
	for i := uint64(0); i < 100; i++ {
		seg1 = append(seg1, pub(tenant|(2+5*i), s30, i*0x9E3779B9, 30))
	}
	for i := uint64(0); i < 150; i++ {
		id := tenant | (1 + 3*i)
		seg2 = append(seg2, pub(id, s9, i*101+3, 9))
		length := 9
		if i%3 == 0 {
			length = 17
		}
		seg2 = append(seg2, pub(id, mixed, i*7919, length))
	}
	for i := uint64(0); i < 40; i++ {
		id := tenant | (500 - 4*i)
		batch = append(batch, pub(id, s9, id+i, 9))
		if i%2 == 0 {
			batch = append(batch, pub(id, s30, id*i, 30))
		}
		if i%4 == 0 {
			batch = append(batch, pub(id, mixed, i+1, 17))
		}
	}
	golden := uint64(0x9E3779B97F4A7C15)
	lone := pub(5*golden|1, s17, 12345, 17)
	return [][]sketch.Published{seg1, seg2, batch, {lone}}
}

// copyFixture copies the files of a committed fixture directory — its
// manifest and shard-0000's files — into a fresh directory.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, shardDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(src, shardDirName(0)))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{manifestName}
	for _, e := range entries {
		names = append(names, filepath.Join(shardDirName(0), e.Name()))
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// dirBytes is the size of a one-shard directory's manifest and files.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, pattern := range []string{manifestName, filepath.Join(shardDirName(0), "*")} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			n += info.Size()
		}
	}
	return n
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
	for _, p := range want {
		if got, ok, err := st.Lookup(p.ID, p.Subset.Key()); err != nil || !ok || !samePub(got, p) {
			t.Fatalf("Lookup(%v, %v) = %+v %v %v, the directory holds %+v", p.ID, p.Subset, got, ok, err, p)
		}
		// The stream may pass an older copy on its way to the newest.
		if got := streamed[keyOf(p)]; !samePub(got, p) {
			t.Fatalf("ReadBatch ends on %+v for %v, the directory holds %+v", got, keyOf(p), p)
		}
	}
}

// requireV5 fails the test unless every file of the one-shard directory
// is v5 — the log's magic and segments' — no other file lies there, and
// the manifest reads "1 v5".  It returns every file's identity.
func requireV5(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
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
		if _, ok := parseSegmentName(e.Name()); e.Name() == walName {
			magic = walMagic
		} else if !ok {
			t.Fatalf("stray file %s after the conversion", path)
		}
		if len(data) < 8 || [8]byte(data[:8]) != magic {
			t.Fatalf("%s opens with %q after the conversion, want %q", path, data[:min(8, len(data))], magic)
		}
		if files[path], err = e.Info(); err != nil {
			t.Fatal(err)
		}
	}
	manifest := filepath.Join(dir, manifestName)
	if data, err := os.ReadFile(manifest); err != nil || string(data) != "1 v5\n" {
		t.Fatalf("manifest after the conversion = %q, %v", data, err)
	}
	if files[manifest], err = os.Stat(manifest); err != nil {
		t.Fatal(err)
	}
	return files
}

// openConverted opens dir, which must convert, serve want and be v5
// after, then runs then on the open store and returns every file's
// identity once it is closed.
func openConverted(t *testing.T, dir string, want []sketch.Published, then func(st *Durable)) map[string]os.FileInfo {
	t.Helper()
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("the directory the parent commit wrote does not open: %v", err)
	}
	requireServes(t, st, want)
	if then != nil {
		then(st)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return requireV5(t, dir)
}

// parentV3DirRecords is the v3 fixture's newest-wins record set.
func parentV3DirRecords() []sketch.Published {
	// Oldest first: testRuns keeps the last of a repeated pair.
	all := parentDirSegment()
	for _, frame := range parentDirFrames() {
		all = append(all, frame...)
	}
	return flatten(testRuns(all))
}

// parentV4DirRecords is the v4 fixture's newest-wins record set.
func parentV4DirRecords() []sketch.Published {
	var all []sketch.Published
	for _, g := range parentV4DirGroups() {
		all = append(all, g...)
	}
	return flatten(testRuns(all))
}

// TestParentWrittenV3DirOpens is the upgrade gate for format v3: the
// directory the parent commit wrote opens under this one, which (1) serves
// exactly its newest-wins record set through IterateRuns, Iterate, Lookup
// and ReadBatch, (2) leaves no v3 byte behind — the log's records are
// segment 2, the v3 segment is rewritten as v5 at its own seq, the log is
// empty and v5 — under a manifest reading "1 v5", which a v3 or v4 binary
// refuses, (3) does nothing on a second Open, (4) loses nothing to a crash
// at any step of the conversion, and (5) compacts as any v5 directory
// does.  TestConversionCrashAtEveryRename stops it at each rename.
func TestParentWrittenV3DirOpens(t *testing.T) {
	want := parentV3DirRecords()
	t.Run("upgrade once", func(t *testing.T) {
		dir := copyFixture(t, parentDirPath)
		start := time.Now()
		first := openConverted(t, dir, want, nil)
		t.Logf("Open converted the %d-record v3 fixture and served it whole in %v", len(want), time.Since(start))
		if len(first) != 4 {
			t.Fatalf("%d files after the upgrade, want the parent's segment, the log's segment, the log and the manifest", len(first))
		}
		second := openConverted(t, dir, want, nil)
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
		// What the older readManifests do with the line: a second field must
		// read v3 (or, for a v4 binary, v4).  It must fail, or that binary
		// would go on to take the v5 log for a torn one of its own and
		// truncate it.
		dir := copyFixture(t, parentDirPath)
		openConverted(t, dir, want, nil)
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if fields := strings.Fields(string(data)); len(fields) == 1 || (len(fields) == 2 && (fields[1] == "v3" || fields[1] == "v4")) {
			t.Fatalf("manifest %q still parses under a v3 or v4 binary", data)
		}
	})
	t.Run("crash after the manifest", func(t *testing.T) {
		dir := copyFixture(t, parentDirPath)
		if err := writeManifest(dir, 1, manifestConverting, false); err != nil {
			t.Fatal(err)
		}
		openConverted(t, dir, want, nil)
	})
	t.Run("crash while the log's segment was written", func(t *testing.T) {
		dir := copyFixture(t, parentDirPath)
		image, _ := encodeSegment(testRuns(want))
		if err := os.WriteFile(filepath.Join(dir, shardDirName(0), segmentName(2)+".tmp"), image[:len(image)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		openConverted(t, dir, want, nil)
	})
	for name, tornLog := range map[string]bool{
		"crash with the log's segment in place and the v3 log still there": false,
		"crash with the new log half written":                              true,
	} {
		t.Run(name, func(t *testing.T) {
			// The log's segment is in place and the v3 log still is: the next
			// Open converts the log again, and the two copies deduplicate.
			dir := copyFixture(t, parentDirPath)
			shard := filepath.Join(dir, shardDirName(0))
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
			if files := openConverted(t, dir, want, nil); len(files) != 5 {
				t.Fatalf("%d files after the second conversion of the log, want three segments, the log and the manifest", len(files))
			}
		})
	}
	t.Run("compaction merges the v3 segment away", func(t *testing.T) {
		dir := copyFixture(t, parentDirPath)
		files := openConverted(t, dir, want, func(st *Durable) {
			if err := st.CompactNow(2); err != nil {
				t.Fatal(err)
			}
		})
		if len(files) != 3 {
			t.Fatalf("%d files after the compaction, want one segment, the log and the manifest", len(files))
		}
		openConverted(t, dir, want, nil)
	})
}

// TestParentWrittenV4DirConverts is the upgrade gate for format v4: the
// directory the parent commit wrote — two segments and a log of a batch
// frame and a lone record's, keys of ℓ = 9, 17 and 30 and a run of mixed
// lengths — is converted by Open, which then serves exactly its records:
// IterateRuns, Iterate, ReadBatch from every cursor of every segment, and
// Lookup of every record, of ids absent below, between and above each
// run's and of a subset the directory does not hold.  Afterwards every
// file is v5, the manifest says so, and the directory is smaller.
func TestParentWrittenV4DirConverts(t *testing.T) {
	groups := parentV4DirGroups()
	want := parentV4DirRecords()
	dir := copyFixture(t, parentV4DirPath)
	before := dirBytes(t, dir)
	start := time.Now()
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("the v4 directory the parent commit wrote does not open: %v", err)
	}
	t.Logf("Open converted the %d-record v4 fixture (%d bytes) in %v", len(want), before, time.Since(start))
	defer st.Close()
	requireServes(t, st, want)

	// The segments after the conversion are the fixture's two, rewritten in
	// place, and the log's, as seq 3: a stream from any cursor reads them
	// in that order.
	segs := [][]sketch.Published{
		flatten(testRuns(groups[0])),
		flatten(testRuns(groups[1])),
		flatten(testRuns(append(slices.Clone(groups[2]), groups[3]...))),
	}
	var stream []sketch.Published
	for _, seg := range segs {
		stream = append(stream, seg...)
	}
	at := 0
	for s, seg := range segs {
		for _, max := range []int{1, 7, 64, 65, 1000} {
			for off := range seg {
				cursor := packCursor(batchCursor{phase: curPhaseSeg, seq: uint64(s + 1), off: uint64(off)})
				got, _, _, err := st.ReadBatch(cursor, max)
				if err != nil {
					t.Fatalf("ReadBatch(segment %d, %d, %d): %v", s+1, off, max, err)
				}
				from := at + off
				end := min(from+max, len(stream))
				if len(got) != end-from || !samePub(got[0], stream[from]) || !samePub(got[len(got)-1], stream[end-1]) {
					t.Fatalf("ReadBatch(segment %d, %d, %d) returned %d records, want the stream's [%d,%d)", s+1, off, max, len(got), from, end)
				}
			}
		}
		at += len(seg)
	}

	byTag := make(map[string][]bitvec.UserID)
	for _, p := range want {
		byTag[p.Subset.Key()] = append(byTag[p.Subset.Key()], p.ID)
	}
	for tag, ids := range byTag {
		present := make(map[bitvec.UserID]bool, len(ids))
		for _, id := range ids {
			present[id] = true
		}
		for _, id := range []bitvec.UserID{ids[0] - 1, ids[0] + 1, ids[len(ids)/2] + 1, ids[len(ids)-1] + 1} {
			if present[id] {
				continue
			}
			if got, ok, err := st.Lookup(id, tag); err != nil || ok {
				t.Fatalf("Lookup of absent id %v under %q = %+v %v %v", id, tag, got, ok, err)
			}
		}
	}
	if got, ok, err := st.Lookup(want[0].ID, bitvec.MustSubset(8).Key()); err != nil || ok {
		t.Fatalf("Lookup under a subset the directory does not hold = %+v %v %v", got, ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	requireV5(t, dir)
	if after := dirBytes(t, dir); after >= before {
		t.Fatalf("the directory is %d bytes after the conversion, %d before", after, before)
	} else {
		t.Logf("the directory went from %d to %d bytes", before, after)
	}
}

// TestConversionCrashAtEveryRename stops Open's conversion of each
// parent-written fixture after its k-th rename — the manifest's mark, a
// log's segment, the new log, a segment rewritten in place, the final
// manifest — for every k, as a crash would, and opens the directory again.
// Every run must end with the fixture's records on every read path, no
// file of an older format and a manifest reading v5.
func TestConversionCrashAtEveryRename(t *testing.T) {
	defer func() { afterRename = nil }()
	for name, fixture := range map[string]struct {
		path string
		want []sketch.Published
	}{
		"v3": {parentDirPath, parentV3DirRecords()},
		"v4": {parentV4DirPath, parentV4DirRecords()},
	} {
		t.Run(name, func(t *testing.T) {
			// The whole conversion, counted.
			renames := 0
			afterRename = func(string) error { renames++; return nil }
			openConverted(t, copyFixture(t, fixture.path), fixture.want, nil)
			afterRename = nil
			t.Logf("the conversion of the %s fixture made %d renames", name, renames)
			if renames < 4 {
				t.Fatalf("the conversion made %d renames, want the mark, the log's segment, the log, a segment and the manifest", renames)
			}
			for k := 1; k <= renames; k++ {
				dir := copyFixture(t, fixture.path)
				n := 0
				afterRename = func(path string) error {
					if n++; n == k {
						return fmt.Errorf("a crash after rename %d (%s)", k, filepath.Base(path))
					}
					return nil
				}
				st, err := Open(Options{Dir: dir, CompactInterval: -1})
				afterRename = nil
				if err == nil {
					st.Close()
					t.Fatalf("Open survived a crash after rename %d of %d", k, renames)
				}
				openConverted(t, dir, fixture.want, nil)
			}
		})
	}
}

// TestLoneV3SegmentConverts: a shard that holds ONE v3 segment, which no
// compaction would ever rewrite (a compaction merges two segments or
// more), comes out of Open as a v5 segment of the same records under a
// manifest that says v5, so nothing older than v5 is read once Open
// returns.
func TestLoneV3SegmentConverts(t *testing.T) {
	dir := copyFixture(t, parentDirPath)
	// The fixture without its log: a shard whose last act under the v3
	// binary was a roll.
	if err := os.Remove(filepath.Join(dir, shardDirName(0), walName)); err != nil {
		t.Fatal(err)
	}
	want := flatten(testRuns(parentDirSegment()))
	files := openConverted(t, dir, want, func(st *Durable) {
		if err := st.CompactNow(1); err != nil {
			t.Fatal(err)
		}
	})
	if len(files) != 3 {
		t.Fatalf("%d files after Open and CompactNow(1), want the converted segment, a new log and the manifest", len(files))
	}
	data, err := os.ReadFile(filepath.Join(dir, shardDirName(0), segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if fresh, _ := encodeSegment(testRuns(parentDirSegment())); !bytes.Equal(data, fresh) {
		t.Fatalf("the lone v3 segment became %d bytes, not the %d of the v5 segment of its records", len(data), len(fresh))
	}
	openConverted(t, dir, want, nil)
}

// TestManifestFormats: readManifest takes the markers of the formats this
// version reads — v3 and v4, which it converts, the mark of a conversion
// under way, and v5 — and refuses every other, as an older binary refuses
// v5 and the mark: a directory is never opened by a version that cannot
// read all of it.
func TestManifestFormats(t *testing.T) {
	for line, want := range map[string]string{
		"3 v3\n": "v3", "3 v4\n": "v4", "3 v5-converting\n": "v5-converting", "3 v5\n": "v5", "3\n": "",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, format, err := readManifest(dir); err != nil || n != 3 || format != want {
			t.Fatalf("readManifest(%q) = %d, %q, %v; want 3, %q", line, n, format, err, want)
		}
	}
	for _, line := range []string{"3 v6\n", "3 v2\n", "3 v5-done\n", "3 v5 v5\n", "v5\n", "0 v5\n"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, format, err := readManifest(dir); err == nil {
			t.Fatalf("readManifest(%q) = %d, %q: want a refusal", line, n, format)
		}
	}
}
