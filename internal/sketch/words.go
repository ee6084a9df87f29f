package sketch

import (
	"fmt"
	"math/bits"
	"slices"
)

// Pack packs a valid sketch (Length ≤ MaxLength = 30, so Key < 2^30) into
// one word, the key above a 5-bit length.  It is the only packed form of a
// sketch: what a table column holds, what a store run writes, what the
// record loop decodes.
func (s Sketch) Pack() uint64 { return s.Key<<5 | uint64(s.Length) }

// UnpackSketch reverses Pack.
func UnpackSketch(word uint64) Sketch { return Sketch{Key: word >> 5, Length: int(word & 31)} }

// MaxWordWidth is how many bytes the Pack word of the longest valid sketch
// needs: a 30-bit key above a 5-bit length.
const MaxWordWidth = 5

// WordWidth is how many bytes a Pack word needs.
func WordWidth(word uint64) int { return max(1, (bits.Len64(word)+7)/8) }

// Words is a column of Pack words, each stored big-endian in the same
// number of bytes: the width of the widest word the column was given, so
// a column of the 9-bit sketches of a million-user deployment holds two
// bytes per record.  A column that meets a wider word is re-encoded at the
// wider width — rare: a deployment's sketches share one length — and never
// narrows.  The bytes are a store run's word column exactly (store/run.go),
// so a run whose width agrees moves between disk and table with a copy.
//
// Like a slice, a Words value shares its storage with the values it was
// sliced from or appended into.  The zero Words is empty.
type Words struct {
	width int // bytes per word; 0 only while the column has never held one
	b     []byte
}

// MakeWords returns a column of n zero words with room for capacity, like
// make([]T, n, capacity), at the given width.
func MakeWords(width, n, capacity int) Words {
	return Words{width: width, b: make([]byte, n*width, capacity*width)}
}

// Len returns the number of words.
func (k Words) Len() int {
	if k.width == 0 {
		return 0
	}
	return len(k.b) / k.width
}

// Width returns the bytes per word.
func (k Words) Width() int { return k.width }

// At returns word i.
func (k Words) At(i int) uint64 {
	var word uint64
	for _, c := range k.b[i*k.width : (i+1)*k.width] {
		word = word<<8 | uint64(c)
	}
	return word
}

// Sketch returns the sketch word i packs.
func (k Words) Sketch(i int) Sketch { return UnpackSketch(k.At(i)) }

// Set overwrites word i with a word no wider than the column.
func (k Words) Set(i int, word uint64) { putWord(k.b[i*k.width:(i+1)*k.width], word) }

// putWord writes word big-endian across at; appendWord appends it to dst in
// width bytes.
func putWord(at []byte, word uint64) {
	for j := len(at) - 1; j >= 0; j-- {
		at[j], word = byte(word), word>>8
	}
}

func appendWord(dst []byte, word uint64, width int) []byte {
	dst = append(dst, make([]byte, width)...)
	putWord(dst[len(dst)-width:], word)
	return dst
}

// Swap exchanges words i and j.
func (k Words) Swap(i, j int) {
	a, b := k.b[i*k.width:(i+1)*k.width], k.b[j*k.width:(j+1)*k.width]
	for x := range a {
		a[x], b[x] = b[x], a[x]
	}
}

// Slice returns words [lo, hi), sharing k's storage and keeping the room
// behind it, like k[lo:hi] of a slice.
func (k Words) Slice(lo, hi int) Words {
	return Words{width: k.width, b: k.b[lo*k.width : hi*k.width]}
}

// Reset returns an empty column of the given width that reuses k's storage.
func (k Words) Reset(width int) Words { return Words{width: width, b: k.b[:0]} }

// Clone returns a copy of k sharing nothing with it.
func (k Words) Clone() Words { return Words{width: k.width, b: slices.Clone(k.b)} }

// MinWidth is the narrowest width that holds every word of k: the width a
// store run of these words is written at.
func (k Words) MinWidth() int {
	var widest uint64
	for i, n := 0, k.Len(); i < n; i++ {
		widest = max(widest, k.At(i))
	}
	return WordWidth(widest)
}

// Check returns an error unless every word packs a valid sketch.
func (k Words) Check() error {
	for i, n := 0, k.Len(); i < n; i++ {
		if !k.Sketch(i).Valid() {
			return fmt.Errorf("sketch: word %#x is no valid sketch", k.At(i))
		}
	}
	return nil
}

// Append appends one word, widening the column if the word needs it.
func (k Words) Append(word uint64) Words {
	if w := WordWidth(word); w > k.width {
		k = k.widened(w)
	}
	k.b = appendWord(k.b, word, k.width)
	return k
}

// AppendWords appends the words of o: a copy when the widths agree, word
// by word into the wider of the two otherwise.
func (k Words) AppendWords(o Words) Words {
	if len(o.b) == 0 {
		return k
	}
	if o.width > k.width {
		k = k.widened(o.width)
	}
	k.b = o.AppendTo(k.b, k.width)
	return k
}

// AppendTo appends k's words to dst at width bytes each, which must hold
// them (MinWidth): the word column of a store run.
func (k Words) AppendTo(dst []byte, width int) []byte {
	if width == k.width {
		return append(dst, k.b...)
	}
	for i, n := 0, k.Len(); i < n; i++ {
		dst = appendWord(dst, k.At(i), width)
	}
	return dst
}

// AppendEncoded appends the words of a store run's word column — src,
// width bytes a word — after checking that each packs a valid sketch; it
// appends nothing otherwise.  It is where bytes from disk become a column.
func (k Words) AppendEncoded(src []byte, width int) (Words, error) {
	o := Words{width: width, b: src}
	if err := o.Check(); err != nil {
		return k, err
	}
	return k.AppendWords(o), nil
}

// widened returns k re-encoded at a larger width, with room for as many
// words as k had.
func (k Words) widened(width int) Words {
	room := 0
	if k.width > 0 {
		room = cap(k.b) / k.width
	}
	return Words{width: width, b: k.AppendTo(make([]byte, 0, room*width), width)}
}
