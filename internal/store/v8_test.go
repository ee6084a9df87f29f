package store

import (
	"bytes"
	"encoding/binary"
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

// v8Records returns what the version that wrote testdata/dir-v8 read from
// it through Iterate, as it listed them in testdata/dir-v8.records: one
// record a line, the subset's positions, the id, the sketch's length and
// key.
func v8Records(t testing.TB) []sketch.Published {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "dir-v8.records"))
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

// requireConverted fails the test unless dir is the converted dir-v8: it
// serves every record the v8 version read, its manifest reads v9, each
// shard holds one v9 segment beside an empty v9 log, and a second Open and
// Close write nothing.
func requireConverted(t *testing.T, dir string, want []sketch.Published) {
	t.Helper()
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("Open of the v8 directory: %v", err)
	}
	requireServes(t, st, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(data) != "2 v9\n" {
		t.Fatalf("manifest = %q, %v; want 2 v9", data, err)
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
		if log, err := os.ReadFile(filepath.Join(shard, walName)); err != nil || !bytes.Equal(log, walMagic[:]) {
			t.Fatalf("converted shard %d's log is %q (%v), want an empty v9 log", i, log, err)
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

// TestV8DirConverts: Open converts the committed v8 directory — two
// shards, two segments and a log in each, written by the last version
// that writes v8 from the v7 fixture and then lone appends of P10, of a
// single position, of a subset of several stretches and of a second
// length, batches of dense and of descending hashed ids over several
// subsets, whose runs after the first share its ids, re-publishes, and a
// roll between them — to v9 once, and it serves exactly the records the
// version that wrote it read; with a torn frame at the end of a log, which
// that version's replay cut off, the same.
func TestV8DirConverts(t *testing.T) {
	want := v8Records(t)
	if len(want) != 1357 {
		t.Fatalf("dir-v8.records lists %d records, want 1357", len(want))
	}
	requireConverted(t, copyFixture(t, filepath.Join("testdata", "dir-v8")), want)
	torn := copyFixture(t, filepath.Join("testdata", "dir-v8"))
	log := filepath.Join(torn, shardDirName(1), walName)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	// The log's first frame again, cut short.
	frame := data[len(walMagicV8) : len(walMagicV8)+frameHeadV8+int(binary.BigEndian.Uint32(data[len(walMagicV8):]))]
	if err := os.WriteFile(log, append(data, frame[:len(frame)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}
	requireConverted(t, torn, want)
}

// TestV8LogConvertsRunForRun: logV9 writes each v8 log frame as the v9
// frame of the same runs — a lone record's under the lone-record bit, a
// run sharing the ids of the one before it still sharing them — so the
// converted fixture's logs replay to exactly what the v8 replay read, and
// hold as many shared runs as the v8 frames did.
func TestV8LogConvertsRunForRun(t *testing.T) {
	for i := range 2 {
		data, err := os.ReadFile(filepath.Join("testdata", "dir-v8", shardDirName(i), walName))
		if err != nil {
			t.Fatal(err)
		}
		shared, lone := 0, 0
		if end, _ := eachFrameV8(data, len(walMagicV8), len(data), func(_ int, payload []byte) error {
			return eachRunV8(payload, func(h runHeader, _ bitvec.Subset, _, _ []byte) error {
				if h.shared {
					shared++
				} else if h.count == 1 {
					lone++
				}
				return nil
			})
		}); end != len(data) {
			t.Fatalf("shard %d's v8 log parses to %d of %d bytes", i, end, len(data))
		}
		image := logV9(data)
		sharedV9, loneV9 := 0, 0
		if end, err := eachFrame(image, len(walMagic), len(image), func(_ int, payload []byte) error {
			return eachRun(payload, func(h runHeader, _, _ []byte) error {
				if h.shared {
					sharedV9++
				} else if h.count == 1 {
					loneV9++
				}
				return nil
			})
		}); end != len(image) || err != nil {
			t.Fatalf("shard %d's converted log parses to %d of %d bytes: %v", i, end, len(image), err)
		}
		if shared == 0 || lone == 0 || sharedV9 != shared || loneV9 != lone {
			t.Fatalf("shard %d: the v8 log holds %d shared runs and %d lone records, the v9 one %d and %d", i, shared, lone, sharedV9, loneV9)
		}
		if len(image)-len(walMagic) >= len(data)-len(walMagicV8) {
			t.Fatalf("shard %d: the v8 log's %d bytes of frames are %d in v9", i, len(data)-len(walMagicV8), len(image)-len(walMagic))
		}
	}
}

// TestV8ConversionResumesAfterEveryFailure: whichever of a conversion's
// renames and removes fails — standing in for a crash there — Open fails,
// and the next Open completes the conversion: the directory serves every
// record the v8 version read, and is v9 throughout.
func TestV8ConversionResumesAfterEveryFailure(t *testing.T) {
	want := v8Records(t)
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
	dir := copyFixture(t, filepath.Join("testdata", "dir-v8"))
	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Two manifests, and in each shard a merged segment, the two segments
	// it replaces and the log.
	steps := calls.Load()
	if steps != 10 {
		t.Fatalf("the conversion renamed and removed %d times, want 10", steps)
	}
	for k := int64(1); k <= steps; k++ {
		dir := copyFixture(t, filepath.Join("testdata", "dir-v8"))
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

// FuzzV8Conversion corrupts a byte of one of the committed v8 directory's
// segments: Open must refuse the directory with ErrSegmentCorrupt and
// write nothing, or convert it and serve exactly its records.
func FuzzV8Conversion(f *testing.F) {
	segs := []string{
		filepath.Join(shardDirName(0), segmentName(5)),
		filepath.Join(shardDirName(0), segmentName(6)),
		filepath.Join(shardDirName(1), segmentName(4)),
		filepath.Join(shardDirName(1), segmentName(5)),
	}
	// The first frame of the first segment: its head, then its run's
	// header — a subset's name, the shape byte and the count — and its id
	// block.
	data, err := os.ReadFile(filepath.Join("testdata", "dir-v8", segs[0]))
	if err != nil {
		f.Fatal(err)
	}
	const payload = len(segMagicV8) + frameHeadV8
	h, _, err := parseRunHeaderV8(data[payload:len(data)-segFooterSize], 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, 0, byte(0))
	f.Add(0, 3, byte(0x01))                     // the magic
	f.Add(1, 9, byte(0x80))                     // the first frame's length
	f.Add(2, 13, byte(0x01))                    // its checksum
	f.Add(0, payload, byte(0x01))               // its run's position count
	f.Add(0, payload+1, byte(0x10))             // a position
	f.Add(0, payload+len(h.name), byte(0x80))   // the shape's shared-ids bit
	f.Add(0, payload+len(h.name), byte(0x03))   // the shape
	f.Add(0, payload+len(h.name)+1, byte(0x80)) // the count
	f.Add(0, payload+h.size+1, byte(0x80))      // the id block's first id
	f.Add(0, -1, byte(0x01))                    // the footer's record count
	f.Add(3, -20, byte(0x80))                   // the last frame's words
	want := v8Records(f)
	f.Fuzz(func(t *testing.T, seg, at int, xor byte) {
		dir := copyFixture(t, filepath.Join("testdata", "dir-v8"))
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
				t.Fatalf("Open of a v8 directory with a segment's byte %d flipped by %#x = %v", at, xor, err)
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
