package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// parentFixturePath is a v3 segment written by the commit before the
// stored index section and the bloom filter were deleted — by its
// encodeSegment over parentFixtureRecords — so it ends in a directory, a
// sparse index and a bloom under a checksummed footer.
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
// run's and under a subset the segment does not hold.  A segment written
// here from the same records is that file minus the section, to the byte,
// which is why the format is still v3.
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
		first, last := r.IDs[0], r.IDs[len(r.IDs)-1]
		for name, id := range map[string]bitvec.UserID{"below": first - 1, "between": first + 1, "between blocks": r.IDs[len(r.IDs)/2] + 1, "above": last + 1} {
			if got, ok, err := st.Lookup(id, r.tag); err != nil || ok {
				t.Fatalf("Lookup of absent id %v (%s the run of %v) = %+v %v %v", id, name, r.Subset, got, ok, err)
			}
		}
	}
	if got, ok, err := st.Lookup(want[0].ID, bitvec.MustSubset(3).Key()); err != nil || ok {
		t.Fatalf("Lookup under a subset the segment does not hold = %+v %v %v", got, ok, err)
	}

	// What is written now: the parent's bytes up to its data area's end,
	// then the footer of an empty section.
	fresh, _ := encodeSegment(runs)
	areaEnd := len(fresh) - segFooterSize
	if !bytes.Equal(fresh[:areaEnd], image[:areaEnd]) {
		t.Fatal("a segment written here differs from the parent's inside the data area")
	}
	if !bytes.Equal(fresh[areaEnd+4:], image[len(image)-8:]) {
		t.Fatalf("a segment written here ends its data area at %x, the parent's at %x", fresh[areaEnd+4:], image[len(image)-8:])
	}
	if len(image)-len(fresh) < 8*len(want)/10 {
		t.Fatalf("the parent's file is only %d bytes longer than the %d written here: where is its section?", len(image)-len(fresh), len(fresh))
	}
}
