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
// low bit first — what AppendBits writes and a WordWriter writes a word at
// a time — and AppendBitsFrom takes them back as they were, onto an empty
// column, one of a shape of its own, and one of the same length.  It
// refuses, appending nothing, a column no writer writes — a shape of 0 or
// past MaxLength (the whole Pack words of an older store, which only its
// conversion reads), bytes that are not ⌈n·bits/8⌉, a pad bit set — and
// words of another length than those of the column they are appended to.
func TestWordColumnOnDisk(t *testing.T) {
	for _, length := range []int{1, 9, 17, 30} {
		sketches := []Sketch{{Key: 5 % (1 << length), Length: length}, {Key: 1<<length - 1, Length: length}, {Key: 3 % (1 << length), Length: length}}
		shape := Shape(length)
		var col Words
		raw := make([]uint64, len(sketches))
		for i, s := range sketches {
			col, raw[i] = col.Append(s.Pack()), s.Key
		}
		want := packLE(raw, length)
		if col.Shape() != shape || !bytes.Equal(col.AppendBits(nil), want) {
			t.Fatalf("a column of shape %d writes %x, want shape %d, %x", col.Shape(), col.AppendBits(nil), shape, want)
		}
		ww, put := NewWordWriter(shape, 1), make([]byte, 1+len(want))
		for i := 0; i < col.Len(); i++ {
			ww.Put(put, col.At(i))
		}
		if ww.Flush(put); !bytes.Equal(put[1:], want) {
			t.Fatalf("a WordWriter writes %x, want %x", put[1:], want)
		}
		for _, onto := range []Words{{}, MakeWords(shape, 0, 1), MakeWords(shape, 0, 1).Append(Sketch{Key: 1, Length: length}.Pack()), MakeWords(30, 0, 1)} {
			back, err := onto.AppendBitsFrom(want, shape, col.Len())
			if err != nil || back.Len() != onto.Len()+col.Len() || back.Shape() != shape {
				t.Fatalf("AppendBitsFrom = %d words of shape %d, %v", back.Len(), back.Shape(), err)
			}
			for i, s := range sketches {
				if got := back.Sketch(onto.Len() + i); got != s {
					t.Fatalf("word %d reads %v back, want %v", i, got, s)
				}
			}
		}
		other := MakeWords(1, 0, 1).Append(Sketch{Key: 1, Length: length%MaxLength + 1}.Pack())
		if got, err := other.AppendBitsFrom(want, shape, col.Len()); err == nil || got.Len() != 1 {
			t.Fatalf("words of shape %d appended to a column of shape %d: %d words, %v; want a refusal", shape, other.Shape(), got.Len(), err)
		}
		if !panics(func() { other.Append(sketches[0].Pack()) }) || !panics(func() { other.AppendWords(col) }) || !panics(func() { w := NewWordWriter(other.Shape(), 0); w.Put(put, sketches[0].Pack()) }) {
			t.Fatalf("a %d-bit word went into a column of shape %d", length, other.Shape())
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
		// Three whole words that each pack a valid sketch, as an older store
		// wrote a column that met two lengths: not a shape a column has.
		"whole words":            {packLE([]uint64{0x21, 0x21, 0x21}, 14), MaxLength + 14, 3},
		"a shape past MaxLength": {packLE([]uint64{5, 511, 3}, 31), MaxLength + 1, 3},
	} {
		got, err := held.AppendBitsFrom(tc.src, tc.shape, tc.n)
		if err == nil || got.Len() != held.Len() || got.Sketch(0) != held.Sketch(0) {
			t.Fatalf("%s: AppendBitsFrom = %d words, %v; want a refusal and the column as it was", name, got.Len(), err)
		}
	}
	for _, word := range []uint64{0, 7 << 5, 31, Sketch{Key: 99, Length: 4}.Pack(), Sketch{Key: 1, Length: 4}.Pack() | 1<<34} {
		if !panics(func() { Words{}.Append(word) }) {
			t.Fatalf("a column took word %#x, which packs no valid sketch", word)
		}
	}
}
