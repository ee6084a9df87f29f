package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// referenceColumns encodes records — one subset's, in the order given —
// as the columns of a run, knowing nothing of sketch.IDs, sketch.Words or
// Pack: the ids — as format v3 held them, 8 bytes each, or as v4 does, in
// blocks of 64 that are a width byte, a first id and the differences at
// that width, or width 8 and the ids raw where they do not ascend or lie
// 2³² apart — then each sketch as its key above a 5-bit length in the bytes
// the widest needs.  It returns the columns and that width.
func referenceColumns(records []sketch.Published, v3 bool) ([]byte, int) {
	var out []byte
	for at := 0; at < len(records); at += 64 {
		block := records[at:min(at+64, len(records))]
		w := 1
		for i := 1; i < len(block); i++ {
			switch d := uint64(block[i].ID) - uint64(block[i-1].ID); {
			case block[i].ID <= block[i-1].ID || d >= 1<<32:
				w = 8
			case w < 8:
				w = max(w, (bits.Len64(d)+7)/8)
			}
		}
		if !v3 {
			out = append(out, byte(w))
		}
		for i, p := range block {
			if v3 || w == 8 || i == 0 {
				out = binary.BigEndian.AppendUint64(out, uint64(p.ID))
				continue
			}
			d := uint64(p.ID) - uint64(block[i-1].ID)
			for shift := 8 * (w - 1); shift >= 0; shift -= 8 {
				out = append(out, byte(d>>shift))
			}
		}
	}
	widest := uint64(0)
	for _, p := range records {
		widest = max(widest, p.S.Key<<5|uint64(p.S.Length))
	}
	width := max(1, (bits.Len64(widest)+7)/8)
	for _, p := range records {
		word := p.S.Key<<5 | uint64(p.S.Length)
		for shift := 8 * (width - 1); shift >= 0; shift -= 8 {
			out = append(out, byte(word>>shift))
		}
	}
	return out, width
}

// framePayload is the payload of a log frame holding one run: the columns
// cols of n records of tag's subset, width bytes a sketch.
func framePayload(tag string, n, width int, cols []byte) []byte {
	payload := binary.BigEndian.AppendUint32(nil, 1)
	return append(appendRunHeader(payload, tag, n, width), cols...)
}

// FuzzColumnWords drives one table column and the store's run machinery
// with an op stream read from the fuzzer's bytes, against a map: inserts,
// removals and loaded runs of sketches whose packed words are 1 to 5 bytes
// wide, in any mixture, so the column and every run on the way are
// re-encoded wider at arbitrary points.  A loaded run is gathered the way a
// log's frames are (arrival order, repeats, newest wins), sorted, deduplicated
// and handed to the table for keeps.  Throughout, the column must read as
// the map does; and written as a run its bytes must be the ones the format
// says (referenceColumns), decode back to the same column — from a v4
// frame and from v3 columns, also onto words of another width, also split
// and merged — and, loaded into an empty table, read the same again.
func FuzzColumnWords(f *testing.F) {
	// FuzzWALReplay's corpus, for what its bytes do as ops, and streams that
	// widen a column step by step and back-load narrow runs under wide ones.
	frame := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		out = binary.BigEndian.AppendUint32(out, checksum(payload))
		return append(out, payload...)
	}
	f.Add(uint64(1), 3, []byte(nil))
	f.Add(uint64(2), 0, []byte("garbage after the magic"))
	f.Add(uint64(3), 5, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3})
	f.Add(uint64(4), 2, frame([]byte{0, 0, 0, 9}))
	f.Add(uint64(5), 4, frame([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2}))
	f.Add(uint64(6), 1, frame(binary.BigEndian.AppendUint32([]byte{0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}, 1<<31)))
	f.Add(uint64(7), 6, walMagic[:])
	f.Add(uint64(8), 40, []byte{0x00, 0x08, 0x10, 0x06, 0x20, 0x28, 0x06, 0x40, 0x48, 0x07, 0x60, 0x68, 0x06, 0x80, 0x88, 0x07, 0xA0, 0xC0, 0xC8, 0x07})
	f.Add(uint64(9), 90, []byte{0xC4, 0xC5, 0x04, 0x05, 0x07, 0x03, 0x0B, 0x13, 0x24, 0x45, 0x07, 0x84, 0xA5, 0x06, 0x07})
	lengths := [8]int{1, 8, 9, 16, 17, 24, 30, 9}
	b := bitvec.MustSubset(0, 3, 5)
	f.Fuzz(func(t *testing.T, seed uint64, extra int, ops []byte) {
		// The bytes pick each op and its sketch length; extra ops follow
		// from the seed alone, so a short input still does some work.
		ops = append(bytes.Clone(ops[:min(len(ops), 400)]), make([]byte, int(uint(extra)%100))...)
		x := seed
		for i := len(ops) - int(uint(extra)%100); i < len(ops); i++ {
			x = splitmix64(x)
			ops[i] = byte(x)
		}
		tab, oracle := sketch.NewTable(), make(map[bitvec.UserID]sketch.Sketch)
		record := func(c byte) sketch.Published {
			x = splitmix64(x)
			length := lengths[c>>5]
			return sketch.Published{ID: bitvec.UserID(x % 211), Subset: b, S: sketch.Sketch{Key: x >> 20 % (1 << uint(length)), Length: length}}
		}
		sorted := func() []sketch.Published {
			out := make([]sketch.Published, 0, len(oracle))
			for id, s := range oracle {
				out = append(out, sketch.Published{ID: id, Subset: b, S: s})
			}
			slices.SortFunc(out, func(p, q sketch.Published) int { return int(p.ID) - int(q.ID) })
			return out
		}
		same := func(what string, got, want []sketch.Published) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
			}
			for i := range want {
				if !samePub(got[i], want[i]) {
					t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], want[i])
				}
			}
		}
		roundTrip := func() {
			want := sorted()
			same("the column", tab.Snapshot(b), want)
			if len(want) == 0 {
				return
			}
			runs := testRuns(want)
			ids, keys := runs[0].IDs.AppendTo(nil), runs[0].Keys
			wantBytes, wantWidth := referenceColumns(want, false)
			width := keys.MinWidth()
			written := keys.AppendTo(sketch.AppendIDBlocks(nil, ids), width)
			if width != wantWidth || !bytes.Equal(written, wantBytes) {
				t.Fatalf("%d records are written %d bytes wide as %x, want %d bytes wide, %x", len(want), width, written, wantWidth, wantBytes)
			}
			set := newRunSet()
			if n, err := set.addFrame(framePayload(b.Key(), len(want), width, wantBytes)); err != nil || n != len(want) {
				t.Fatalf("the frame of the reference columns adds %d records, %v", n, err)
			}
			same("the decoded frame", flatten(set.normalized()), want)
			// What a v3 file holds of them, through the one reader left.
			v3Bytes, _ := referenceColumns(want, true)
			gotIDs, gotKeys, err := decodeColumns(v3Bytes, len(want), width, nil, sketch.Words{})
			if err != nil {
				t.Fatal(err)
			}
			runOf := func(ids []bitvec.UserID, keys sketch.Words) sketch.Run {
				return sketch.Run{Subset: b, IDs: sketch.MakeIDs(ids), Keys: keys}
			}
			same("the decoded v3 run", runOf(gotIDs, gotKeys).AppendTo(nil), want)
			// Onto words of every other width, and as two halves merged.
			for w := 1; w <= sketch.MaxWordWidth; w++ {
				_, onto, err := decodeColumns(v3Bytes, len(want), width, nil, sketch.MakeWords(w, 0, 1))
				if err != nil {
					t.Fatal(err)
				}
				same("the run decoded onto other words", runOf(gotIDs, onto).AppendTo(nil), want)
			}
			half := len(want) / 2
			mergedIDs, mergedKeys := mergeColumns([]sketch.Run{
				runOf(gotIDs[half:], gotKeys.Slice(half, len(want))),
				runOf(gotIDs[:half], gotKeys.Slice(0, half).Clone()),
			})
			same("the merged halves", sketch.Run{Subset: b, IDs: mergedIDs, Keys: mergedKeys}.AppendTo(nil), want)
			fresh := sketch.NewTable()
			if err := fresh.LoadRun(runOf(gotIDs, gotKeys)); err != nil {
				t.Fatal(err)
			}
			same("the reloaded column", fresh.Snapshot(b), want)
		}
		for _, c := range ops {
			switch c & 7 {
			case 0, 1, 2:
				p := record(c)
				held, had := oracle[p.ID]
				existing, added, err := tab.AddNew(&p)
				if err != nil || added == had || (had && existing != held) {
					t.Fatalf("AddNew(%+v) = (%v, %v, %v), the map held (%v, %v)", p, existing, added, err, held, had)
				}
				if added {
					oracle[p.ID] = p.S
				}
			case 3:
				id := record(c).ID
				_, had := oracle[id]
				delete(oracle, id)
				if tab.Remove(id, b) != had {
					t.Fatalf("Remove(%v) = %v, the map had=%v", id, !had, had)
				}
			case 4, 5:
				// A run as a log yields it: up to 48 arrivals, the newest
				// winning a repeated user, sorted.  Every fourth is long
				// enough (64 and up) for the radix sort.
				n := 1 + int(c>>3)%48
				if c&0x18 == 0x18 {
					n += 64
				}
				set, newest := newRunSet(), make(map[bitvec.UserID]sketch.Sketch)
				for i := 0; i < n; i++ {
					p := record(c + byte(i)<<5)
					set.add(p)
					newest[p.ID] = p.S
				}
				runs := set.normalized()
				if len(runs) != 1 || runs[0].Len() != len(newest) || !sketch.Ascends(runs[0].IDs.AppendTo(nil)) {
					t.Fatalf("%d arrivals of %d users normalize to %d runs, the first of %d records", n, len(newest), len(runs), runs[0].Len())
				}
				for i, id := range runs[0].IDs.AppendTo(nil) {
					if got := runs[0].Keys.Sketch(i); got != newest[id] {
						t.Fatalf("the normalized run holds %v for user %v, the newest arrival is %v", got, id, newest[id])
					}
				}
				if err := tab.LoadRun(runs[0].Run); err != nil {
					t.Fatal(err)
				}
				for id, s := range newest {
					if _, had := oracle[id]; !had {
						oracle[id] = s
					}
				}
			case 6:
				same("the column", tab.Snapshot(b), sorted())
			default:
				roundTrip()
			}
		}
		roundTrip()
	})
}

// TestDecodeRefusesInvalidWord: a word that packs no valid sketch, or an
// id block of a width no writer writes, is refused wherever bytes from disk
// become columns, however clean the checksums over it — the log's replay
// ends before its frame, a segment holding it fails to open — and nothing
// of its run is kept.
func TestDecodeRefusesInvalidWord(t *testing.T) {
	b := bitvec.MustSubset(0, 3)
	good := []sketch.Published{testRecord(1001, b), testRecord(1002, b), testRecord(1003, b)}
	for name, tc := range map[string]struct {
		word uint16 // the last record's word, when set
		ids  []byte // the run's id column, when set
	}{
		"a length of zero":      {word: 7 << 5},
		"a length past 30":      {word: 31},
		"a key past its length": {word: 0xFF<<5 | 3},
		// The three ids 1 apart at width 5: well-formed but for the width.
		"an id block of width 5": {ids: []byte{5, 0, 0, 0, 0, 0, 0, 0x03, 0xE9, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}},
	} {
		t.Run(name, func(t *testing.T) {
			v3Cols, width := referenceColumns(good, true)
			if width != 2 {
				t.Fatalf("the test's records are %d bytes wide, want 2", width)
			}
			cols, _ := referenceColumns(good, false)
			if tc.ids != nil {
				cols = append(bytes.Clone(tc.ids), cols[len(cols)-len(good)*width:]...)
			} else {
				binary.BigEndian.PutUint16(v3Cols[len(v3Cols)-2:], tc.word)
				if _, keys, err := decodeColumns(v3Cols, len(good), width, nil, sketch.Words{}); err == nil || keys.Len() != 0 {
					t.Fatalf("decodeColumns = %v with %d words kept", err, keys.Len())
				}
				binary.BigEndian.PutUint16(cols[len(cols)-2:], tc.word)
			}

			// A log: one good frame, then a frame whose run holds the columns.
			payload := framePayload(b.Key(), len(good), width, cols)
			bad := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
			bad = append(binary.BigEndian.AppendUint32(bad, checksum(payload)), payload...)
			first := windowFrame(t, testRecord(9, b))
			image := append(append(walMagic[:len(walMagic):len(walMagic)], first...), bad...)
			got, valid := logRecords(t, image)
			if valid != int64(len(walMagic)+len(first)) || len(got) != 1 || got[0].ID != 9 {
				t.Fatalf("replay kept %d bytes and %+v, want the first frame's %d bytes and user 9 alone", valid, got, len(walMagic)+len(first))
			}

			// A segment: the same run as its one block, every sum and the
			// data area's end recomputed.
			image, _ = encodeSegment(testRuns(good))
			block := segHeaderSize + runHeaderFixed + len(b.Key()) + 4
			image = binary.BigEndian.AppendUint32(append(image[:block:block], cols...), checksum(cols))
			end := len(image)
			image = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(image, checksum(nil)), uint64(end))
			if _, err := walkSegment(image, "seg"); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("walkSegment = %v, want ErrSegmentCorrupt", err)
			}
		})
	}
}
