package sketch

import (
	"bytes"
	"testing"
)

// packLE writes words of b bits each one bit at a time, low bit first,
// into ⌈len·b/8⌉ bytes: a word column on disk, by its definition.
func packLE(words []uint64, b int) []byte {
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

// TestWordColumnOnDisk: a column's words on disk are its keys, ℓ bits each
// low bit first, or its whole words where its lengths differ — what
// AppendBits writes and a WordWriter writes a word at a time — and
// AppendBitsFrom takes them back as they were, onto an empty column or a
// column of another shape.  It refuses, appending nothing, a column no
// writer writes: a shape of 0 or past MaxShape, bytes that are not
// ⌈n·bits/8⌉, a pad bit set, a whole word that packs no valid sketch.
func TestWordColumnOnDisk(t *testing.T) {
	sketches := []Sketch{{Key: 5, Length: 9}, {Key: 511, Length: 9}, {Key: 3, Length: 9}}
	mixed := append(sketches[:2:2], Sketch{Key: 1 << 16, Length: 17})
	for _, tc := range []struct {
		sketches []Sketch
		shape    Shape
		raw      func(s Sketch) uint64
	}{
		{sketches, 9, func(s Sketch) uint64 { return s.Key }},
		{mixed, MaxLength + 22, Sketch.Pack},
	} {
		var col Words
		raw := make([]uint64, len(tc.sketches))
		for i, s := range tc.sketches {
			col, raw[i] = col.Append(s.Pack()), tc.raw(s)
		}
		want := packLE(raw, tc.shape.Bits())
		if col.Shape() != tc.shape || !bytes.Equal(col.AppendBits(nil), want) {
			t.Fatalf("a column of shape %d writes %x, want shape %d, %x", col.Shape(), col.AppendBits(nil), tc.shape, want)
		}
		ww, put := NewWordWriter(tc.shape, 1), make([]byte, 1+len(want))
		for i := 0; i < col.Len(); i++ {
			ww.Put(put, col.At(i))
		}
		if ww.Flush(put); !bytes.Equal(put[1:], want) {
			t.Fatalf("a WordWriter writes %x, want %x", put[1:], want)
		}
		for _, onto := range []Words{{}, MakeWords(30, 0, 1).Append(Sketch{Key: 7, Length: 30}.Pack())} {
			back, err := onto.AppendBitsFrom(want, tc.shape, col.Len())
			if err != nil || back.Len() != onto.Len()+col.Len() {
				t.Fatalf("AppendBitsFrom = %d words, %v", back.Len(), err)
			}
			for i, s := range tc.sketches {
				if got := back.Sketch(onto.Len() + i); got != s {
					t.Fatalf("word %d reads %v back, want %v", i, got, s)
				}
			}
		}
	}

	good := packLE([]uint64{5, 511, 3}, 9)
	padded := bytes.Clone(good)
	padded[len(padded)-1] |= 0x80
	held := MakeWords(9, 0, 1).Append(Sketch{Key: 1, Length: 9}.Pack())
	for name, tc := range map[string]struct {
		src   []byte
		shape Shape
		n     int
	}{
		"shape 0":       {good, 0, 3},
		"too few bytes": {good[:3], 9, 3},
		"too many":      {append(bytes.Clone(good), 0), 9, 3},
		"a pad bit":     {padded, 9, 3},
		// Three whole words that each pack a valid sketch, but 36 bits wide.
		"a shape past MaxShape": {packLE([]uint64{0x21, 0x21, 0x21}, 36), MaxShape + 1, 3},
		"a length of zero":      {packLE([]uint64{0x21, 1 << 5}, 14), MaxLength + 14, 2},
		"a key past its length": {packLE([]uint64{0x21, 4<<5 | 2}, 14), MaxLength + 14, 2},
	} {
		got, err := held.AppendBitsFrom(tc.src, tc.shape, tc.n)
		if err == nil || got.Len() != held.Len() || got.Sketch(0) != held.Sketch(0) {
			t.Fatalf("%s: AppendBitsFrom = %d words, %v; want a refusal and the column as it was", name, got.Len(), err)
		}
	}
}
