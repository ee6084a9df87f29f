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

// v5Records returns what the version that wrote testdata/dir-v5 read from
// it through Iterate, as it listed them in testdata/dir-v5.records: one
// record a line, the subset's positions, the id, the sketch's length and
// key.
func v5Records(t *testing.T) []sketch.Published {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "dir-v5.records"))
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

// requireConverted fails the test unless dir is the converted dir-v5: it
// serves every record the v5 version read, its manifest reads v6, its
// shard holds one v6 segment and an empty v6 log, and a second Open and
// Close write nothing.
func requireConverted(t *testing.T, dir string, want []sketch.Published) {
	t.Helper()
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("Open of the v5 directory: %v", err)
	}
	requireServes(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(data) != "1 v6\n" {
		t.Fatalf("manifest = %q, %v; want 1 v6", data, err)
	}
	shard := filepath.Join(dir, shardDirName(0))
	segs, tmps, err := listSegments(shard)
	if err != nil || len(segs) != 1 || len(tmps) != 0 {
		t.Fatalf("the converted shard holds segments %+v and temporary files %v (%v), want one segment", segs, tmps, err)
	}
	if data, err := os.ReadFile(segs[0].path); err != nil || !bytes.HasPrefix(data, segMagic[:]) {
		t.Fatalf("the converted segment starts %q, %v", data[:min(8, len(data))], err)
	}
	if data, err := os.ReadFile(filepath.Join(shard, walName)); err != nil || !bytes.Equal(data, walMagic[:]) {
		t.Fatalf("the converted log is %q, %v; want the v6 magic alone", data, err)
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

// TestV5DirConverts: Open converts the committed v5 directory — two
// segments and a log, two subsets, ids dense under a tenant's tag, far
// apart, hashed, and in a log frame out of order — to v6 once, and it
// serves exactly the records the version that wrote it read.
func TestV5DirConverts(t *testing.T) {
	want := v5Records(t)
	if len(want) != 431 {
		t.Fatalf("dir-v5.records lists %d records, want 431", len(want))
	}
	requireConverted(t, copyFixture(t, filepath.Join("testdata", "dir-v5")), want)
}

// TestV5ConversionResumesAfterEveryFailure: whichever of a conversion's
// renames and removes fails — standing in for a crash there — Open fails,
// and the next Open completes the conversion: the directory serves every
// record the v5 version read, and is v6 throughout.
func TestV5ConversionResumesAfterEveryFailure(t *testing.T) {
	want := v5Records(t)
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
	dir := copyFixture(t, filepath.Join("testdata", "dir-v5"))
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Two manifests, the merged segment, the log, and the two segments it
	// replaces.
	steps := calls.Load()
	if steps != 6 {
		t.Fatalf("the conversion renamed and removed %d times, want 6", steps)
	}
	for k := int64(1); k <= steps; k++ {
		dir := copyFixture(t, filepath.Join("testdata", "dir-v5"))
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
