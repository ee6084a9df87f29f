package store

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// fuzzID maps user u of 600 to an id of one of the shapes ids come in:
// dense under a tenant's tag (1 apart), two tenants' tags in one column
// (one block straddles them), hashed over 64 bits, halves of the id space
// 2⁶³ apart, and a dense run with hashed ids strewn through it.
func fuzzID(shape byte, u uint64) bitvec.UserID {
	switch shape % 5 {
	case 0:
		return bitvec.UserID(7<<40 | u)
	case 1:
		if u < 300 {
			return bitvec.UserID(3<<40 | u)
		}
		return bitvec.UserID(9<<40 | u)
	case 2:
		return bitvec.UserID(splitmix64(u))
	case 3:
		return bitvec.UserID(u&1<<63 | u>>1)
	default:
		if u%3 == 0 {
			return bitvec.UserID(splitmix64(u))
		}
		return bitvec.UserID(7<<40 | u)
	}
}

// parseIDs returns the n-id column src holds exactly, as a store loads one
// from a segment: block by block through the checked append.
func parseIDs(src []byte, n int) (sketch.IDs, error) {
	var b sketch.IDBuilder
	for ; n > 0; n -= sketch.IDBlockLen {
		size, err := b.AppendBlock(src, min(n, sketch.IDBlockLen))
		if err != nil {
			return sketch.IDs{}, err
		}
		src = src[size:]
	}
	if len(src) != 0 {
		return sketch.IDs{}, fmt.Errorf("%d bytes after the id column", len(src))
	}
	return b.IDs(), nil
}

// FuzzColumnIDs drives one table column with an op stream read from the
// fuzzer's bytes, against a map — inserts and loaded runs of ids
// of every shape fuzzID knows — with a View held across every write that
// must go on reading what it read.  Throughout, the column must read as the
// map does through every reader an id column has (At, Find, the block
// cursor, arbitrary slices), be coded exactly as the format says
// (referenceColumns), and come back the same from the log's decoder, the
// checked parser and a segment.  Then hostile goes into the decoders as it
// is: an error or a well-formed ascending column no longer than asked for,
// never a panic, never an allocation its length does not account for.
func FuzzColumnIDs(f *testing.F) {
	f.Add(uint64(1), byte(0), []byte(nil), []byte(nil))
	f.Add(uint64(2), byte(1), []byte{0x04, 0x00, 0x08, 0x0C, 0x06, 0x03, 0x00, 0x04, 0x07}, []byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1})
	f.Add(uint64(3), byte(2), []byte{0x04, 0x0C, 0x14, 0x05, 0x00, 0x03, 0x04, 0x06, 0x07}, []byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 1})                      // a zero difference
	f.Add(uint64(4), byte(3), []byte{0x00, 0x08, 0x04, 0x10, 0x03, 0x18, 0x07}, []byte{2, 8, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 9})                // raw, not ascending
	f.Add(uint64(5), byte(4), []byte{0x04, 0x04, 0x04, 0x04, 0x01, 0x02, 0x03, 0x05, 0x07}, []byte{2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1}) // a sum past 2⁶⁴
	f.Add(uint64(6), byte(0), bytes.Repeat([]byte{0x0C, 0x00}, 60), []byte{200, 9, 1, 2, 3})                                                                 // width 9; more ids than bytes
	f.Add(uint64(7), byte(1), bytes.Repeat([]byte{0x14, 0x06, 0x03}, 40), append([]byte{70, 1, 0, 0, 0, 0, 0, 0, 0, 1}, make([]byte, 63)...))                // one block where two are due
	f.Add(uint64(8), byte(2), []byte{0x05, 0x07}, []byte{3, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1})                                        // width 5, two differences in 10 bits
	f.Add(uint64(9), byte(0), []byte{0x07}, []byte{64, 0, 0, 0, 0, 7, 0, 0, 0, 1})                                                                           // width 0: 64 consecutive ids
	f.Add(uint64(10), byte(3), []byte{0x07}, []byte{2, 32, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})                                                  // width 32: ids 2³² apart
	f.Add(uint64(11), byte(3), []byte{0x07}, []byte{2, 33, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})                                            // width 33: no writer writes it
	f.Add(uint64(12), byte(3), []byte{0x07}, []byte{2, 63, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})                          // width 63
	f.Add(uint64(13), byte(0), []byte{0x07}, []byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0x03})                                                                     // a pad bit set
	f.Add(uint64(14), byte(0), []byte{0x07}, []byte{3, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0x01})                                                                     // width 2 for differences of 1 bit
	f.Add(uint64(15), byte(0), []byte{0x07}, append([]byte{66, 0, 0, 0, 0, 0, 7, 0, 0, 0, 1}, 0, 0, 0, 0, 0, 7, 0, 0))                                       // the last block truncated
	f.Add(uint64(16), byte(2), []byte{0x07}, []byte{2, 64, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})                                                  // raw, ids a difference would code
	b := bitvec.MustSubset(1, 4)
	f.Fuzz(func(t *testing.T, seed uint64, shape byte, ops, hostile []byte) {
		ops = ops[:min(len(ops), 300)]
		x := seed
		user := func() bitvec.UserID {
			x = splitmix64(x)
			return fuzzID(shape, x%600)
		}
		record := func(id bitvec.UserID) sketch.Published {
			return sketch.Published{ID: id, Subset: b, S: sketch.Sketch{Key: uint64(id) * 0x9E3779B97F4A7C15 >> 55, Length: 9}}
		}
		tab, oracle := sketch.NewTable(), make(map[bitvec.UserID]bool)
		sorted := func() []bitvec.UserID {
			ids := make([]bitvec.UserID, 0, len(oracle))
			for id := range oracle {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids
		}
		var held sketch.View
		var heldIDs []bitvec.UserID
		check := func() {
			want := sorted()
			v, _ := tab.View(b)
			ids := v.IDs()
			if ids.Len() != len(want) {
				t.Fatalf("the column holds %d ids, the map %d", ids.Len(), len(want))
			}
			if got := ids.AppendTo(nil); !slices.Equal(got, want) {
				t.Fatalf("the column reads %v, the map holds %v", got, want)
			}
			var buf [sketch.IDBlockLen]bitvec.UserID
			for i, id := range want {
				if got := ids.At(i); got != id {
					t.Fatalf("At(%d) = %v, want %v", i, got, id)
				}
				if at, ok := ids.Find(id); !ok || at != i {
					t.Fatalf("Find(%v) = %d %v, want %d", id, at, ok, i)
				}
				if at, ok := ids.Find(id + 1); ok != oracle[id+1] || at != i+1 {
					t.Fatalf("Find(%v) = %d %v, want %d %v", id+1, at, ok, i+1, oracle[id+1])
				}
				if v.Sketch(i) != record(id).S {
					t.Fatalf("record %d holds %v, user %v published %v", i, v.Sketch(i), id, record(id).S)
				}
			}
			if len(want) > 0 && want[0] > 0 {
				if at, ok := ids.Find(want[0] - 1); ok || at != 0 {
					t.Fatalf("Find below the column = %d %v", at, ok)
				}
			}
			// Arbitrary slices, through every reader.
			for n := 0; n < 4 && len(want) > 0; n++ {
				x = splitmix64(x)
				lo := int(x % uint64(len(want)))
				hi := lo + int(x>>32%uint64(len(want)-lo+1))
				part := ids.Slice(lo, hi)
				if got := part.AppendTo(nil); part.Len() != hi-lo || !slices.Equal(got, want[lo:hi]) {
					t.Fatalf("Slice(%d, %d) reads %v, want %v", lo, hi, got, want[lo:hi])
				}
				for k := 0; k < part.Blocks(); k++ {
					if got, w := part.Block(k, &buf), want[lo+64*k:min(hi, lo+64*k+64)]; !slices.Equal(got, w) {
						t.Fatalf("Slice(%d, %d).Block(%d) = %v, want %v", lo, hi, k, got, w)
					}
				}
				if hi > lo {
					mid := (lo + hi) / 2
					if at, ok := part.Find(want[mid]); !ok || at != mid-lo || part.At(mid-lo) != want[mid] {
						t.Fatalf("Slice(%d, %d).Find(%v) = %d %v", lo, hi, want[mid], at, ok)
					}
					if lo > 0 {
						if at, ok := part.Find(want[lo-1]); ok || at != 0 {
							t.Fatalf("Slice(%d, %d) finds the id before it: %d %v", lo, hi, at, ok)
						}
					}
					if hi < len(want) {
						if at, ok := part.Find(want[hi]); ok || at != hi-lo {
							t.Fatalf("Slice(%d, %d) finds the id after it: %d %v", lo, hi, at, ok)
						}
					}
				}
			}
			// The column's bytes are the format's, however it was merged.
			var coded []byte
			for k := 0; k < ids.Blocks(); k++ {
				coded = append(coded, ids.BlockBytes(k)...)
			}
			records := make([]sketch.Published, len(want))
			for i, id := range want {
				records[i] = record(id)
			}
			wantIDs, wantWords, shape := referenceColumns(records)
			if !bytes.Equal(coded, wantIDs) || ids.Bytes() != len(wantIDs) {
				t.Fatalf("%d ids are held as %x, the format says %x", len(want), coded, wantIDs)
			}
			if got := sketch.AppendIDBlocks(nil, want); !bytes.Equal(got, coded) {
				t.Fatalf("a log frame writes the ids as %x, the column holds %x", got, coded)
			}
			// And they come back: from the log's decoder, the checked
			// parser, a frame and a segment.
			if got, size, err := sketch.DecodeIDBlocks(nil, coded, len(want)); err != nil || size != len(coded) || !slices.Equal(got, want) {
				t.Fatalf("DecodeIDBlocks = %v, %d of %d bytes, %v", got, size, len(coded), err)
			}
			if got, err := parseIDs(coded, len(want)); err != nil || !slices.Equal(got.AppendTo(nil), want) {
				t.Fatalf("the checked append = %v, %v", got.AppendTo(nil), err)
			}
			if len(want) == 0 {
				return
			}
			set := newRunSet()
			if n, err := set.addFrame(framePayload(b, len(want), shape, append(wantIDs, wantWords...))); err != nil || n != len(want) {
				t.Fatalf("the frame of the reference columns adds %d records, %v", n, err)
			}
			runs := set.normalized()
			if got := flatten(runs); len(got) != len(records) || !slices.EqualFunc(got, records, samePub) {
				t.Fatalf("the frame decodes to %v, want %v", got, records)
			}
			image, built := encodeSegment(runs)
			scanned, err := scanSegment(image, "seg")
			if err != nil || len(scanned) != 1 || scanned[0].count != len(want) || !reflect.DeepEqual(scanned, built) {
				t.Fatalf("the segment of the column scans to %+v, built %+v, %v", scanned, built, err)
			}
			// The segment's frame is the log's frame of the same records.
			frame, err := appendFrame(nil, records)
			if got := image[scanned[0].start:scanned[0].end]; err != nil || !bytes.Equal(got, frame) {
				t.Fatalf("the segment's run spans [%d,%d) as %x, the log frames it as %x (%v)", scanned[0].start, scanned[0].end, got, frame, err)
			}
		}
		for _, c := range ops {
			switch c & 7 {
			case 0, 1, 2, 3, 4:
				// An insert; every fourth op byte picks a run of neighbours,
				// so tails hold stretches as well as strays.
				id := user()
				for n := 1 + int(c>>3)%2*int(c>>4); n > 0; n-- {
					p := record(id)
					if _, added, err := tab.AddNew(&p); err != nil || added == oracle[id] {
						t.Fatalf("AddNew(%v) = added %v, %v; the map had=%v", id, added, err, oracle[id])
					}
					oracle[id] = true
					id++
				}
			case 5:
				// A run as a store replays it: up to 150 users, sorted.
				var ps []sketch.Published
				for n := 1 + int(c>>3)*5; n > 0; n-- {
					ps = append(ps, record(user()))
				}
				for _, r := range testRuns(ps) {
					if err := tab.LoadRun(r.Run); err != nil {
						t.Fatal(err)
					}
				}
				for _, p := range ps {
					oracle[p.ID] = true
				}
			case 6:
				held, _ = tab.View(b)
				heldIDs = sorted()
			default:
				check()
			}
			if got := held.IDs().AppendTo(nil); !slices.Equal(got, heldIDs) {
				t.Fatalf("a held view reads %v after a write, it read %v", got, heldIDs)
			}
		}
		check()

		// The hostile leg: the first byte is how many ids the rest claims.
		if len(hostile) == 0 {
			return
		}
		n, src := int(hostile[0]), hostile[1:]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parsed, parseErr := parseIDs(src, n)
		decoded, size, decodeErr := sketch.DecodeIDBlocks(nil, src, n)
		_, hugeErr := parseIDs(src, n<<40|1<<39)
		_, _, hugeDecodeErr := sketch.DecodeIDBlocks(nil, src, n<<40|1<<39)
		_, _ = newRunSet().addFrame(src)
		_, _ = scanSegment(append(segMagic[:len(segMagic):len(segMagic)], src...), "hostile")
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<14+64*len(hostile)); grew > bound {
			t.Fatalf("decoding %d hostile bytes allocated %d", len(hostile), grew)
		}
		if hugeErr == nil || hugeDecodeErr == nil {
			t.Fatalf("%d bytes pass for 2³⁹ ids: %v, %v", len(src), hugeErr, hugeDecodeErr)
		}
		if decodeErr == nil && (len(decoded) != n || size > len(src)) {
			t.Fatalf("DecodeIDBlocks of %d ids returned %d from %d of %d bytes", n, len(decoded), size, len(src))
		}
		if parseErr == nil {
			// The coding is canonical: what a reader accepts is what a writer
			// writes for the ids it read, so widths 33 to 63, a width wider
			// than the differences, a set pad bit and raw ids a width would
			// code are all malformed.
			got := parsed.AppendTo(nil)
			if coded := sketch.AppendIDBlocks(nil, got); !bytes.Equal(coded, src) {
				t.Fatalf("the checked append of %d ids accepted %x, which a writer writes as %x", n, src, coded)
			}
			if parsed.Len() != n || len(got) != n || !sketch.Ascends(got) || decodeErr != nil || size != len(src) || !slices.Equal(got, decoded) {
				t.Fatalf("the checked append of %d ids in %x = %v (DecodeIDBlocks: %v, %d bytes, %v)", n, src, got, decoded, size, decodeErr)
			}
		}
		// A frame whose one run is the hostile column under honest words.
		if n > 0 {
			cols := append(bytes.Clone(src), onesBits(n)...)
			set := newRunSet()
			got, err := set.addFrame(framePayload(b, n, 1, cols))
			if (err == nil) != (decodeErr == nil && size == len(src)) || (err == nil && got != n) {
				t.Fatalf("a frame of the hostile column adds %d records, %v; DecodeIDBlocks read %d of %d bytes, %v", got, err, size, len(src), decodeErr)
			}
			if err == nil {
				ids := set.byKey[string(b.AppendCompact(nil))+"\x01"].ids
				if !slices.Equal(ids, decoded) {
					t.Fatalf("the frame decodes the column to %v, DecodeIDBlocks to %v", ids, decoded)
				}
			}
		}
	})
}

// TestIDColumnCanonical: the checked parser takes an id column exactly
// when a writer writes it so — FuzzColumnIDs's hostile seeds, named — and
// reads what it holds.
func TestIDColumnCanonical(t *testing.T) {
	first := []byte{0, 0, 0, 0, 0, 0, 0, 1}
	block := func(w byte, tail ...byte) []byte { return append(append([]byte{w}, first...), tail...) }
	consecutive := make([]bitvec.UserID, 64)
	for i := range consecutive {
		consecutive[i] = bitvec.UserID(1 + i)
	}
	for name, c := range map[string]struct {
		n    int
		src  []byte
		want []bitvec.UserID // nil: refused
	}{
		"width 0":                      {64, block(0), consecutive},
		"width 1":                      {3, block(1, 0x02), []bitvec.UserID{1, 2, 4}},
		"width 32":                     {2, block(32, 0xFF, 0xFF, 0xFF, 0xFF), []bitvec.UserID{1, 1<<32 + 1}},
		"raw, more than 2³² apart":     {2, block(64, 0, 0, 0, 1, 0, 0, 0, 2), []bitvec.UserID{1, 1<<32 + 2}},
		"width 33":                     {2, block(33, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), nil},
		"width 63":                     {2, block(63, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), nil},
		"width 65":                     {2, block(65, 0, 0, 0, 0, 0, 0, 0, 2), nil},
		"a pad bit set":                {2, block(1, 0x03), nil},
		"wider than its differences":   {3, block(2, 0x01), nil},
		"width 1 for consecutive ids":  {2, block(1, 0x00), nil},
		"raw ids a width would code":   {2, block(64, 0, 0, 0, 0, 0, 0, 0, 2), nil},
		"a lone id raw":                {1, block(64), nil},
		"differences summing past 2⁶⁴": {2, append([]byte{32, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0, 0, 0, 0), nil},
		"the last block truncated":     {65, append(block(0), block(0)[:5]...), nil},
		"a block where two are due":    {65, block(0), nil},
		"bytes after the column":       {1, block(0, 0), nil},
		"63 consecutive ids":           {63, block(0), consecutive[:63]},
	} {
		got, err := parseIDs(c.src, c.n)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: %x passes as %v", name, c.src, got.AppendTo(nil))
			}
			continue
		}
		if err != nil || !slices.Equal(got.AppendTo(nil), c.want) {
			t.Errorf("%s: %x reads %v, %v; want %v", name, c.src, got.AppendTo(nil), err, c.want)
		}
	}
}
