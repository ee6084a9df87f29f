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

// referenceColumns encodes records — one subset's, all of one length ℓ,
// in the order given — as the columns of a v6 run, knowing nothing of
// sketch.IDs, sketch.Words or Pack: the ids in blocks of 64 that are a
// width byte b, a first id and each later id's difference less one in b
// bits, low bit first (packBits), b the bit length of the widest, or
// width 64 and the ids raw where they do not ascend or lie more than 2³²
// apart; then the keys in ℓ bits each, low bit first.  The header byte is
// ℓ.
func referenceColumns(records []sketch.Published) (ids, words []byte, header byte) {
	for at := 0; at < len(records); at += 64 {
		block := records[at:min(at+64, len(records))]
		var deltas []uint64
		w := 0
		for i := 1; i < len(block) && w < 64; i++ {
			switch d := uint64(block[i].ID) - uint64(block[i-1].ID) - 1; {
			case block[i].ID <= block[i-1].ID || d >= 1<<32:
				w = 64
			default:
				w, deltas = max(w, bits.Len64(d)), append(deltas, d)
			}
		}
		ids = append(ids, byte(w))
		if w == 64 {
			for _, p := range block {
				ids = binary.BigEndian.AppendUint64(ids, uint64(p.ID))
			}
			continue
		}
		ids = binary.BigEndian.AppendUint64(ids, uint64(block[0].ID))
		ids = append(ids, packBits(deltas, w)...)
	}
	keys := make([]uint64, len(records))
	for i, p := range records {
		keys[i] = p.S.Key
	}
	length := 0
	if len(records) > 0 {
		length = records[0].S.Length
	}
	return ids, packBits(keys, length), byte(length)
}

// onesBits is packBits of n words of 1, one bit each: the column of n keys
// of 1 at ℓ = 1.
func onesBits(n int) []byte {
	words := make([]uint64, n)
	for i := range words {
		words[i] = 1
	}
	return packBits(words, 1)
}

// packBits writes words of b bits each one bit at a time, low bit first,
// into ⌈len·b/8⌉ bytes: a word column, and an id block's differences.
func packBits(words []uint64, b int) []byte {
	out := make([]byte, (len(words)*b+7)/8)
	for i, w := range words {
		for j := 0; j < b; j++ {
			if w>>uint(j)&1 == 1 {
				out[(i*b+j)/8] |= 1 << uint((i*b+j)%8)
			}
		}
	}
	return out
}

// sameSketches fails the test unless the column k reads as want.
func sameSketches(t *testing.T, what string, k sketch.Words, want []sketch.Sketch) {
	t.Helper()
	if k.Len() != len(want) {
		t.Fatalf("%s: %d words, want %d", what, k.Len(), len(want))
	}
	for i, s := range want {
		if got := k.Sketch(i); got != s || k.At(i) != s.Pack() {
			t.Fatalf("%s: word %d of %d reads %v (%#x), want %v", what, i, len(want), got, k.At(i), s)
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// framePayload is the payload of a log frame holding one run: the columns
// cols of n records of subset b, under the shape byte given — the header
// written as the format says, knowing nothing of appendRunHeader: b's
// position count and positions and then n, uvarints, around the byte.
func framePayload(b bitvec.Subset, n int, header byte, cols []byte) []byte {
	payload := binary.AppendUvarint(nil, uint64(b.Len()))
	for _, p := range b.Positions() {
		payload = binary.AppendUvarint(payload, uint64(p))
	}
	payload = binary.AppendUvarint(append(payload, header), uint64(n))
	return append(payload, cols...)
}

// FuzzColumnWords drives one table column and the store's run machinery
// with an op stream read from the fuzzer's bytes, against a map: inserts,
// ingested batches and loaded runs of sketches of the column's one length
// — the seed picks it, 1 to 30 bits — and, one in eight, of a foreign
// length, which is refused: by AddNew, by a batch, which stops its
// admission there, by a loaded run whole, and by a log's run set gathering
// it beside the column's.  Only a column that holds nothing yet takes the
// length its first record brings.  A batch repeats users within itself
// and re-publishes held ones, now and then with another sketch, which
// stops its admission there too.  A loaded run is gathered the way a log's
// frames are (arrival order, repeats, newest wins), sorted, deduplicated
// and handed to the table for keeps.  Throughout, the column must read as
// the map does; and written as a run its bytes must be the ones the format
// says (referenceColumns), decode back to the same column from a log
// frame, also split and merged, and, loaded into an empty table, read the
// same again.  The words themselves are driven on the way: slices cut at
// any bit are appended to columns ending at any other, Set and Swap write
// single words, and a column refuses a word, a column or a disk column of
// another length.  A negative extra runs the stream wide: users are drawn
// from 2³² rather than 211 and an insert publishes 64 of them, so that a
// column's pending records can reach its stack's first merge
// (sketch.Table: eight spilled runs of level 0's 256 records) before a
// read folds them; past 4096 records the column is held to the map alone,
// the bytes of its runs no longer written out.
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
	// Wide: 303 inserts of 64, then a read.  The column folds as it grows,
	// the last time at 17 128 records, and then 2264 are pending: past the
	// stack's first merge at 2049, short of the next fold at 2397.
	f.Add(uint64(10), -1, append(make([]byte, 303), 0x07))
	lengths := [7]int{1, 8, 9, 16, 17, 24, 30}
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
		// How many users there are, and how many an insert publishes.
		users, burst := uint64(211), 1
		if extra < 0 {
			users, burst = 1<<32, 64
		}
		// base is the length the op stream gives its records; the column's,
		// colLen, is the length of the first record it took, 0 before.
		base, colLen := lengths[seed%uint64(len(lengths))], 0
		foreign := base%sketch.MaxLength + 1
		record := func(c byte) sketch.Published {
			x = splitmix64(x)
			length := base
			if c>>5 == 7 {
				length = foreign
			}
			return sketch.Published{ID: bitvec.UserID(x % users), Subset: b, S: sketch.Sketch{Key: x >> 20 % (1 << uint(length)), Length: length}}
		}
		admits := func(length int) bool { return colLen == 0 || length == colLen }
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
			if len(want) == 0 || len(want) > 1<<12 {
				// A wide column past 4096 records is held to the map alone.
				return
			}
			runs := testRuns(want)
			ids, keys := runs[0].IDs.AppendTo(nil), runs[0].Keys
			wantIDs, wantWords, wantShape := referenceColumns(want)
			written := keys.AppendBits(sketch.AppendIDBlocks(nil, ids))
			if keys.Shape() != sketch.Shape(wantShape) || !bytes.Equal(written, append(bytes.Clone(wantIDs), wantWords...)) {
				t.Fatalf("%d records are written at shape %d as %x, want shape %d, %x%x", len(want), keys.Shape(), written, wantShape, wantIDs, wantWords)
			}
			// The log writes the records' frame from the sketches themselves.
			frame, err := appendFrame(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			if payload := framePayload(b, len(want), wantShape, append(bytes.Clone(wantIDs), wantWords...)); !bytes.Equal(frame[walFrameHeader:], payload) {
				t.Fatalf("the log frames %d records as %x; want %x", len(want), frame[walFrameHeader:], payload)
			}
			set := newRunSet()
			if n, err := set.addFrame(frame[walFrameHeader:]); err != nil || n != len(want) {
				t.Fatalf("the frame of the reference columns adds %d records, %v", n, err)
			}
			same("the decoded frame", flatten(set.normalized()), want)
			runOf := func(ids []bitvec.UserID, keys sketch.Words) sketch.Run {
				return sketch.Run{Subset: b, IDs: sketch.MakeIDs(ids), Keys: keys}
			}
			wantSketches := make([]sketch.Sketch, len(want))
			for i, p := range want {
				wantSketches[i] = p.S
			}
			x = splitmix64(x)
			odd := sketch.Sketch{Key: x % 2, Length: want[0].S.Length%sketch.MaxLength + 1} // a sketch of another length
			gotIDs, gotKeys := ids, keys
			// The run's words through the checked copy: onto an empty column
			// and onto one of their length holding a word, which must read
			// as it did; a column of another length refuses them, and a
			// word and a column of another length, as it was.
			first := sketch.Sketch{Key: x % (1 << uint(colLen)), Length: colLen}
			onto, err := sketch.MakeWords(sketch.Shape(colLen), 0, 1).Append(first.Pack()).AppendBitsFrom(wantWords, sketch.Shape(wantShape), len(want))
			if err != nil {
				t.Fatal(err)
			}
			sameSketches(t, "the run's words decoded onto words of their length", onto, append([]sketch.Sketch{first}, wantSketches...))
			if onto, err = (sketch.Words{}).AppendBitsFrom(wantWords, sketch.Shape(wantShape), len(want)); err != nil {
				t.Fatal(err)
			}
			sameSketches(t, "the run's words decoded onto an empty column", onto, wantSketches)
			other := sketch.Words{}.Append(odd.Pack())
			if got, err := other.AppendBitsFrom(wantWords, sketch.Shape(wantShape), len(want)); err == nil || got.Len() != 1 {
				t.Fatalf("a column of %d-bit sketches took %d-bit ones from disk: %d words, %v", odd.Length, colLen, got.Len(), err)
			}
			if !panics(func() { gotKeys.Clone().Append(odd.Pack()) }) || !panics(func() { other.AppendWords(gotKeys) }) {
				t.Fatalf("a column of %d-bit sketches took a %d-bit one", colLen, odd.Length)
			}
			// Slices cut at any bit, also of a slice, appended 64 bits at a
			// time into columns ending at other bits and empty ones.
			for k := 0; k < 4; k++ {
				x = splitmix64(x)
				lo := int(x % uint64(len(want)+1))
				hi := lo + int(x>>16%uint64(len(want)-lo+1))
				part, partModel := gotKeys.Slice(lo, hi), wantSketches[lo:hi]
				if k%2 == 1 && hi > lo {
					part, partModel = part.Slice(1, hi-lo), partModel[1:]
				}
				into := int(x >> 32 % uint64(len(want)+1))
				sameSketches(t, "a slice appended to a slice", gotKeys.Slice(into/3, into).Clone().AppendWords(part), append(slices.Clone(wantSketches[into/3:into]), partModel...))
				sameSketches(t, "a slice appended to an empty column", sketch.Words{}.AppendWords(part), partModel)
				sameSketches(t, "the slice", part, partModel)
			}
			// Set and Swap write a word's bits and no other's.
			rewritten, rewrittenModel := gotKeys.Clone(), slices.Clone(wantSketches)
			for k := 0; k < 8; k++ {
				x = splitmix64(x)
				i, j := int(x%uint64(len(want))), int(x>>32%uint64(len(want)))
				rewritten.Swap(i, j)
				rewrittenModel[i], rewrittenModel[j] = rewrittenModel[j], rewrittenModel[i]
				rewritten.Set(j, rewritten.At((i+j)/2))
				rewrittenModel[j] = rewrittenModel[(i+j)/2]
			}
			sameSketches(t, "the column written by Set and Swap", rewritten, rewrittenModel)
			sameSketches(t, "the column it was cloned from", gotKeys, wantSketches)
			// As two halves merged.
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
			case 2:
				// An ingested batch of up to 48 arrivals (every fourth 64
				// more, enough to merge into the column), of the byte's
				// lengths: an arrival whose pair the column or an earlier
				// arrival holds re-publishes that sketch, but for one in
				// eight, a conflict.  The map admits in input order and
				// stops at the first conflict or foreign length — not the
				// column's, or for an empty column the first arrival's.
				n := 1 + int(c>>3)%48
				if c&0x18 == 0x18 {
					n += 64
				}
				batch, planned := make([]sketch.Published, n), make(map[bitvec.UserID]sketch.Sketch)
				for i := range batch {
					p := record(c + byte(i)<<5)
					held, had := oracle[p.ID]
					if !had {
						held, had = planned[p.ID]
					}
					if had && x%8 != 0 {
						p.S = held
					}
					if _, ok := planned[p.ID]; !ok {
						planned[p.ID] = p.S
					}
					batch[i] = p
				}
				admitted, refused := 0, false
				if colLen == 0 {
					colLen = batch[0].S.Length
				}
				for _, p := range batch {
					held, had := oracle[p.ID]
					if (had && held != p.S) || !admits(p.S.Length) {
						refused = true
						break
					}
					if !had {
						oracle[p.ID] = p.S
						admitted++
					}
				}
				if len(oracle) == 0 {
					colLen = 0
				}
				bt, err := tab.Probe(batch)
				if (err != nil) != refused || bt.Len() != admitted {
					t.Fatalf("Probe of %d arrivals admitted %d, %v; the map %d, refused=%v", n, bt.Len(), err, admitted, refused)
				}
				if got := tab.Land(bt); got != admitted {
					t.Fatalf("Land added %d records, the map %d", got, admitted)
				}
			case 0, 1, 3:
				for k := 0; k < burst; k++ {
					p := record(c)
					held, had := oracle[p.ID]
					existing, added, err := tab.AddNew(&p)
					if !admits(p.S.Length) {
						if added || !errors.Is(err, sketch.ErrForeignLength) {
							t.Fatalf("AddNew(%+v) of a foreign length onto %d-bit sketches = (%v, %v)", p, colLen, added, err)
						}
						break
					}
					if err != nil || added == had || (had && existing != held) {
						t.Fatalf("AddNew(%+v) = (%v, %v, %v), the map held (%v, %v)", p, existing, added, err, held, had)
					}
					if added {
						oracle[p.ID], colLen = p.S, p.S.Length
					}
				}
			case 4, 5:
				// A run as a log yields it: up to 48 arrivals of the byte's
				// length, the newest winning a repeated user, sorted — an
				// arrival of another length is a run of its own, which the
				// table refuses if it holds the first.  Every fourth is long
				// enough (64 and up) for the radix sort.
				n := 1 + int(c>>3)%48
				if c&0x18 == 0x18 {
					n += 64
				}
				set, newest := newRunSet(), make(map[bitvec.UserID]sketch.Sketch)
				for i := 0; i < n; i++ {
					p := record(c)
					set.add(p)
					newest[p.ID] = p.S
				}
				stray := record(c ^ 0xE0)
				if stray.S.Length = foreign; c>>5 == 7 {
					stray.S.Length = base
				}
				stray.S.Key %= 1 << uint(stray.S.Length)
				set.add(stray)
				runs := set.normalized()
				if len(runs) != 2 || runs[0].Keys.Shape() >= runs[1].Keys.Shape() {
					t.Fatalf("%d arrivals and a stray of another length normalize to %d runs", n, len(runs))
				}
				if int(runs[0].Keys.Shape()) == stray.S.Length {
					runs = runs[1:]
				} else {
					runs = runs[:1]
				}
				if runs[0].Len() != len(newest) || !sketch.Ascends(runs[0].IDs.AppendTo(nil)) {
					t.Fatalf("%d arrivals of %d users normalize to a run of %d records", n, len(newest), runs[0].Len())
				}
				for i, id := range runs[0].IDs.AppendTo(nil) {
					if got := runs[0].Keys.Sketch(i); got != newest[id] {
						t.Fatalf("the normalized run holds %v for user %v, the newest arrival is %v", got, id, newest[id])
					}
				}
				if length := int(runs[0].Keys.Shape()); !admits(length) {
					if err := tab.LoadRun(runs[0].Run); !errors.Is(err, sketch.ErrForeignLength) {
						t.Fatalf("LoadRun of %d-bit sketches onto %d-bit ones = %v", length, colLen, err)
					}
					break
				}
				if err := tab.LoadRun(runs[0].Run); err != nil {
					t.Fatal(err)
				}
				colLen = int(runs[0].Keys.Shape())
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

// TestDecodeRefusesInvalidWord: a word column a writer never writes —
// pad bits that are not zero, a shape byte that is no length (0, or past
// 30, as an older binary's whole Pack words were) — or an id block of a
// width no writer writes is refused wherever bytes from disk become
// columns, however clean the checksums over it: the log's replay ends
// before its frame, a segment holding it fails to open, and nothing of its
// run is kept.
func TestDecodeRefusesInvalidWord(t *testing.T) {
	b := bitvec.MustSubset(0, 3)
	good := []sketch.Published{testRecord(1001, b), testRecord(1002, b), testRecord(1003, b)}
	goodIDs, goodWords, goodShape := referenceColumns(good)
	if goodShape != 10 || len(goodWords) != 4 {
		t.Fatalf("the test's records are of shape %d in %d bytes, want 10 in 4", goodShape, len(goodWords))
	}
	for name, tc := range map[string]struct {
		word  uint64 // the last record's word, when set: the run is whole words of 16 bits or more
		ids   []byte // the run's id column, when set
		pad   bool   // a pad bit of the last byte set
		shape byte   // the header's shape byte, when set
	}{
		"a length of zero":      {word: 7 << 5},
		"a length past 30":      {word: 31},
		"a key past its length": {word: 0xFF<<5 | 3},
		// At the length of the run's other words.
		"a key past the run's own length":          {word: 1<<10<<5 | 10},
		"an invalid word under a whole-word shape": {word: 1<<34 | 31},
		// The three ids 1 apart at widths 5 and 33: well-formed but for the
		// width, which is 0.
		"an id block of width 5":       {ids: []byte{5, 0, 0, 0, 0, 0, 0, 0x03, 0xE9, 0, 0}},
		"an id block of width 33":      {ids: append([]byte{33, 0, 0, 0, 0, 0, 0, 0x03, 0xE9}, make([]byte, 9)...)},
		"non-zero pad bits":            {pad: true},
		"shape byte 0":                 {shape: 0xFF},
		"shape byte 31":                {shape: sketch.MaxLength + 1},
		"a shape byte past the widest": {shape: 255},
	} {
		t.Run(name, func(t *testing.T) {
			ids, words, shape := bytes.Clone(goodIDs), bytes.Clone(goodWords), goodShape
			switch {
			case tc.ids != nil:
				ids = bytes.Clone(tc.ids)
			case tc.word != 0:
				packed := make([]uint64, len(good))
				for i, p := range good {
					packed[i] = p.S.Pack()
				}
				packed[len(packed)-1] = tc.word
				width := max(16, bits.Len64(tc.word))
				words, shape = packBits(packed, width), byte(sketch.MaxLength+width)
			case tc.pad:
				words[len(words)-1] |= 0x80
			case tc.shape == 0xFF:
				shape = 0
			case tc.shape != 0:
				shape = tc.shape
			}
			payload := framePayload(b, len(good), shape, append(ids, words...))

			// A log: one good frame, then a frame whose run holds the columns.
			first := windowFrame(t, testRecord(9, b))
			image := append(append(walMagic[:len(walMagic):len(walMagic)], first...), logFrame(payload)...)
			got, valid := logRecords(t, image)
			if valid != int64(len(walMagic)+len(first)) || len(got) != 1 || got[0].ID != 9 {
				t.Fatalf("replay kept %d bytes and %+v, want the first frame's %d bytes and user 9 alone", valid, got, len(walMagic)+len(first))
			}

			// A segment: the same frame, and the footer's count.
			if _, err := scanSegment(oneRunSegment(payload, len(good)), "seg"); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("scanSegment = %v, want ErrSegmentCorrupt", err)
			}
		})
	}
	// The same construction of the good columns opens.
	if _, err := scanSegment(oneRunSegment(framePayload(b, len(good), goodShape, append(goodIDs, goodWords...)), len(good)), "seg"); err != nil {
		t.Fatalf("the good columns as a segment: %v", err)
	}
}

// logFrame is the frame of payload, its length and checksum computed.
func logFrame(payload []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(binary.BigEndian.AppendUint32(frame, checksum(payload)), payload...)
}

// oneRunSegment is a segment image holding the one frame of payload, a
// run of n records.
func oneRunSegment(payload []byte, n int) []byte {
	image := append(segMagic[:len(segMagic):len(segMagic)], logFrame(payload)...)
	return binary.BigEndian.AppendUint64(image, uint64(n))
}
