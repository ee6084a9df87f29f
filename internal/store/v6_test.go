package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// v6Records returns what the version that wrote testdata/dir-v6 read from
// it through Iterate, as it listed them in testdata/dir-v6.records: one
// record a line, the subset's positions, the id, the sketch's length and
// key.
func v6Records(t testing.TB) []sketch.Published {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "dir-v6.records"))
	if err != nil {
		t.Fatal(err)
	}
	var out []sketch.Published
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("record line %q", line)
		}
		var positions []int
		for _, p := range strings.Split(f[0], ",") {
			n, err := strconv.Atoi(p)
			if err != nil {
				t.Fatal(err)
			}
			positions = append(positions, n)
		}
		id, err1 := strconv.ParseUint(f[1], 0, 64)
		length, err2 := strconv.Atoi(f[2])
		key, err3 := strconv.ParseUint(f[3], 0, 64)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("record line %q: %v", line, err)
		}
		out = append(out, sketch.Published{ID: bitvec.UserID(id), Subset: bitvec.MustSubset(positions...), S: sketch.Sketch{Key: key, Length: length}})
	}
	return out
}

// requireConverted fails the test unless dir is the converted dir-v6: it
// serves every record the v6 version read, its manifest reads v7, each
// shard holds one v7 segment beside the log it held, which is as it was,
// and a second Open and Close write nothing.
func requireConverted(t *testing.T, dir string, want []sketch.Published) {
	t.Helper()
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("Open of the v6 directory: %v", err)
	}
	requireServes(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(data) != "2 v7\n" {
		t.Fatalf("manifest = %q, %v; want 2 v7", data, err)
	}
	for i := range 2 {
		shard := filepath.Join(dir, shardDirName(i))
		segs, tmps, err := listSegments(shard)
		if err != nil || len(segs) != 1 || len(tmps) != 0 {
			t.Fatalf("converted shard %d holds segments %+v and temporary files %v (%v), want one segment", i, segs, tmps, err)
		}
		if data, err := os.ReadFile(segs[0].path); err != nil || !bytes.HasPrefix(data, segMagic[:]) {
			t.Fatalf("converted shard %d's segment starts %q, %v", i, data[:min(8, len(data))], err)
		}
		log, err := os.ReadFile(filepath.Join(shard, walName))
		was, werr := os.ReadFile(filepath.Join("testdata", "dir-v6", shardDirName(i), walName))
		if err != nil || werr != nil || !bytes.Equal(log, was) {
			t.Fatalf("converted shard %d's log is %d bytes, it was %d (%v, %v)", i, len(log), len(was), err, werr)
		}
	}
	before := dirState(t, dir)
	st, err = Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireServes(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)
	if len(after) != len(before) {
		t.Fatalf("a second Open left %d files and directories, there were %d", len(after), len(before))
	}
	for path, was := range before {
		if after[path] != was {
			t.Fatalf("a second Open of the converted directory touched %s", path)
		}
	}
}

// TestV6DirConverts: Open converts the committed v6 directory — two
// shards, two segments in one, a log in each, ids dense under a tenant's
// tag, far apart, hashed and, in a log frame, out of order, a subset at
// two lengths — to v7 once, and it serves exactly the records the version
// that wrote it read.
func TestV6DirConverts(t *testing.T) {
	want := v6Records(t)
	if len(want) != 372 {
		t.Fatalf("dir-v6.records lists %d records, want 372", len(want))
	}
	requireConverted(t, copyFixture(t, filepath.Join("testdata", "dir-v6")), want)
}

// TestV6ConversionResumesAfterEveryFailure: whichever of a conversion's
// renames and removes fails — standing in for a crash there — Open fails,
// and the next Open completes the conversion: the directory serves every
// record the v6 version read, and is v7 throughout.
func TestV6ConversionResumesAfterEveryFailure(t *testing.T) {
	want := v6Records(t)
	var calls, failAt atomic.Int64
	failing := func() bool { return calls.Add(1) == failAt.Load() }
	renameFile = func(from, to string) error {
		if failing() {
			return errors.New("injected failure")
		}
		return os.Rename(from, to)
	}
	removeFile = func(path string) error {
		if failing() {
			return errors.New("injected failure")
		}
		return os.Remove(path)
	}
	t.Cleanup(func() { renameFile, removeFile = os.Rename, os.Remove })

	// Count the steps of a conversion that fails at none.
	dir := copyFixture(t, filepath.Join("testdata", "dir-v6"))
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Two manifests, a merged segment a shard, and the three segments they
	// replace.
	steps := calls.Load()
	if steps != 7 {
		t.Fatalf("the conversion renamed and removed %d times, want 7", steps)
	}
	for k := int64(1); k <= steps; k++ {
		dir := copyFixture(t, filepath.Join("testdata", "dir-v6"))
		calls.Store(0)
		failAt.Store(k)
		if st, err := Open(Options{Dir: dir, CompactInterval: -1}); err == nil {
			st.Close()
			t.Fatalf("Open with step %d of %d failing succeeded", k, steps)
		}
		failAt.Store(0)
		requireConverted(t, dir, want)
	}
}

// FuzzV6Conversion corrupts a byte of one of the committed v6 directory's
// segments: Open must refuse the directory with ErrSegmentCorrupt and
// write nothing, or convert it and serve exactly its records — a byte no
// v6 reader reads, the footer's checksum of nothing, changes nothing.
func FuzzV6Conversion(f *testing.F) {
	f.Add(0, 0, byte(0))
	f.Add(0, 3, byte(0x01))   // the magic
	f.Add(1, 9, byte(0x80))   // the record count
	f.Add(2, 20, byte(0x01))  // a run header's tag
	f.Add(0, 45, byte(0x01))  // a run header's checksum
	f.Add(1, 60, byte(0x10))  // a block
	f.Add(2, -12, byte(0xFF)) // the footer's checksum of nothing
	f.Add(0, -1, byte(0x01))  // the data area's end
	f.Add(1, -20, byte(0x80)) // the last block's checksum
	f.Add(2, 200, byte(0x02)) // a block of the second shard's segment
	segs := []string{
		filepath.Join(shardDirName(0), segmentName(1)),
		filepath.Join(shardDirName(0), segmentName(2)),
		filepath.Join(shardDirName(1), segmentName(1)),
	}
	want := v6Records(f)
	f.Fuzz(func(t *testing.T, seg, at int, xor byte) {
		dir := copyFixture(t, filepath.Join("testdata", "dir-v6"))
		path := filepath.Join(dir, segs[int(uint(seg)%uint(len(segs)))])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if at < 0 {
			at += len(data)
		}
		if at = int(uint(at) % uint(len(data))); xor != 0 {
			data[at] ^= xor
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirState(t, dir)
		st, err := Open(Options{Dir: dir, CompactInterval: -1})
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) || xor == 0 {
				t.Fatalf("Open of a v6 directory with a segment's byte %d flipped by %#x = %v", at, xor, err)
			}
			after := dirState(t, dir)
			for path, was := range before {
				if after[path] != was {
					t.Fatalf("the refused conversion touched %s", path)
				}
			}
			for path := range after {
				if _, ok := before[path]; !ok && filepath.Base(path) != "LOCK" {
					t.Fatalf("the refused conversion created %s", path)
				}
			}
			return
		}
		defer st.Close()
		requireServes(t, st, want)
	})
}
