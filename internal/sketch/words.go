package sketch

import (
	"fmt"
	"math/bits"
	"slices"
)

// Pack packs a valid sketch (Length ≤ MaxLength = 30, so Key < 2^30) into
// one word, the key above a 5-bit length.  It is the only packed form of a
// sketch: what a column is read as, what a store run writes, what the
// record loop decodes.
func (s Sketch) Pack() uint64 { return s.Key<<5 | uint64(s.Length) }

// UnpackSketch reverses Pack.
func UnpackSketch(word uint64) Sketch { return Sketch{Key: word >> 5, Length: int(word & 31)} }

// MaxWordWidth is how many bytes the Pack word of the longest valid sketch
// needs: a 30-bit key above a 5-bit length.
const MaxWordWidth = 5

// WordWidth is how many bytes a Pack word needs: the width a store run
// writes it at.
func WordWidth(word uint64) int { return max(1, (bits.Len64(word)+7)/8) }

// A Shape is how a column holds its words.  A column whose sketches share
// one length ℓ — a deployment's do, its Params fix ℓ — has shape ℓ: it
// holds ℓ once and each sketch's key in exactly ℓ bits, the paper's
// ⌈log log O(M)⌉-bit disclosure and nothing else.  A column that meets a
// second length, or a word that packs no valid sketch, holds whole Pack
// words instead, each in the bits the widest needs.  The zero Shape is a
// column's before its first word.
type Shape uint8

// wholeWords is the shape of whole Pack words of up to n bits (1..64):
// the shapes up to MaxLength are the single-length ones.
func wholeWords(n int) Shape { return Shape(MaxLength + n) }

// ShapeOf returns the shape of a column holding word alone.
func ShapeOf(word uint64) Shape {
	if s := UnpackSketch(word); s.Valid() {
		return Shape(s.Length)
	}
	return wholeWords(max(1, bits.Len64(word)))
}

// Join returns the narrowest shape that holds the words of both s and t:
// either one when the other is the same or zero, whole words wide enough
// for the wider of the two otherwise.
func (s Shape) Join(t Shape) Shape {
	switch {
	case s == t || t == 0:
		return s
	case s == 0:
		return t
	}
	return wholeWords(max(s.widest(), t.widest()))
}

// bits is how many bits a word of shape s occupies in its column.
func (s Shape) bits() int {
	if s <= MaxLength {
		return int(s)
	}
	return int(s - MaxLength)
}

// widest is how many bits the widest Pack word of shape s has.
func (s Shape) widest() int {
	if s <= MaxLength {
		return int(s) + 5
	}
	return s.bits()
}

// fits reports whether a column of shape s holds word as it is.
func (s Shape) fits(word uint64) bool {
	if s <= MaxLength {
		return s != 0 && word&31 == uint64(s) && word>>5 < 1<<s
	}
	return bits.Len64(word) <= s.bits()
}

// encode and decode convert between a Pack word and what a column of
// shape s holds of it: the key alone under one length, the word otherwise.
func (s Shape) encode(word uint64) uint64 {
	if s <= MaxLength {
		return word >> 5
	}
	return word
}

func (s Shape) decode(raw uint64) uint64 {
	if s <= MaxLength {
		return raw<<5 | uint64(s)
	}
	return raw
}

// Words is a column of Pack words, bit-packed: each word takes exactly the
// bits its column's Shape gives it, so the 9-bit sketches of a
// million-user deployment hold 9 bits a record.  A column that meets a
// word its shape does not hold is re-encoded at the Join of the two — rare:
// a deployment's sketches share one length — and never narrows.  The bits
// are the column's in memory only: a store run writes and reads its words
// at a byte width of its own, through AppendTo and AppendEncoded.
//
// Like a slice, a Words value shares its storage with the values it was
// sliced from or appended into.  The zero Words is empty.
type Words struct {
	shape Shape
	off   uint8 // the bit of w[0] where word 0 starts
	n     int
	// w holds word i at bits [off + i·b, off + (i+1)·b), b the shape's bits,
	// counted from the low bit of w[0] up; it is exactly as long as the
	// words need.  Bits past the last word are undefined.
	w []uint64
}

// span is how many 64-bit words n bits occupy.
func span(n int) int { return (n + 63) >> 6 }

// MakeWords returns a column of n zero words of the given shape with room
// for capacity, like make([]T, n, capacity).
func MakeWords(shape Shape, n, capacity int) Words {
	b := shape.bits()
	return Words{shape: shape, n: n, w: make([]uint64, span(n*b), span(capacity*b))}
}

// Len returns the number of words.
func (k Words) Len() int { return k.n }

// Shape returns how the column holds its words.
func (k Words) Shape() Shape { return k.shape }

// raw returns what the column holds of word i.
func (k Words) raw(i int) uint64 {
	if uint(i) >= uint(k.n) {
		panic(fmt.Sprintf("sketch: word %d of %d", i, k.n))
	}
	b := k.shape.bits()
	p := int(k.off) + i*b
	q, r := p>>6, uint(p&63)
	x := k.w[q] >> r
	if int(r)+b > 64 {
		x |= k.w[q+1] << (64 - r)
	}
	return x & (1<<uint(b) - 1)
}

// setRaw overwrites what the column holds of word i with x.
func (k Words) setRaw(i int, x uint64) {
	if uint(i) >= uint(k.n) {
		panic(fmt.Sprintf("sketch: word %d of %d", i, k.n))
	}
	b := k.shape.bits()
	p := int(k.off) + i*b
	q, r := p>>6, uint(p&63)
	mask := uint64(1)<<uint(b) - 1
	k.w[q] = k.w[q]&^(mask<<r) | x<<r
	if int(r)+b > 64 {
		k.w[q+1] = k.w[q+1]&^(mask>>(64-r)) | x>>(64-r)
	}
}

// At returns word i.
func (k Words) At(i int) uint64 { return k.shape.decode(k.raw(i)) }

// Sketch returns the sketch word i packs.
func (k Words) Sketch(i int) Sketch {
	if k.shape <= MaxLength {
		return Sketch{Key: k.raw(i), Length: int(k.shape)}
	}
	return UnpackSketch(k.raw(i))
}

// Set overwrites word i with a word the column's shape holds.
func (k Words) Set(i int, word uint64) {
	if !k.shape.fits(word) {
		panic(fmt.Sprintf("sketch: word %#x does not fit a column of shape %d", word, k.shape))
	}
	k.setRaw(i, k.shape.encode(word))
}

// Swap exchanges words i and j.
func (k Words) Swap(i, j int) {
	x, y := k.raw(i), k.raw(j)
	k.setRaw(i, y)
	k.setRaw(j, x)
}

// Slice returns words [lo, hi), sharing k's storage and keeping the room
// behind it, like k[lo:hi] of a slice.  Word lo need not start a 64-bit
// word: the slice keeps the bit it starts at.
func (k Words) Slice(lo, hi int) Words {
	if lo < 0 || hi < lo || hi > k.n {
		panic(fmt.Sprintf("sketch: words [%d:%d] of %d", lo, hi, k.n))
	}
	b := k.shape.bits()
	from, to := int(k.off)+lo*b, int(k.off)+hi*b
	return Words{shape: k.shape, off: uint8(from & 63), n: hi - lo, w: k.w[from>>6 : span(to)]}
}

// Reset returns an empty column that reuses k's storage; its first words
// give it its shape.
func (k Words) Reset() Words { return Words{w: k.w[:0]} }

// Clone returns a copy of k sharing nothing with it.
func (k Words) Clone() Words {
	k.w = slices.Clone(k.w)
	return k
}

// MinWidth is the narrowest byte width that holds every word of k: the
// width a store run of these words is written at.
func (k Words) MinWidth() int {
	// No word of the shape needs more than most bytes, so the scan stops at
	// the first that does: under one length, all but a few keys do.
	most, widest := (k.shape.widest()+7)/8, uint64(0)
	for i := 0; i < k.n && WordWidth(widest) < most; i++ {
		widest = max(widest, k.At(i))
	}
	return WordWidth(widest)
}

// Check returns an error unless every word packs a valid sketch: at once
// under one length, whose shape holds nothing else.
func (k Words) Check() error {
	if k.shape <= MaxLength {
		return nil
	}
	for i := 0; i < k.n; i++ {
		if !k.Sketch(i).Valid() {
			return fmt.Errorf("sketch: word %#x is no valid sketch", k.At(i))
		}
	}
	return nil
}

// grow makes room for n more words and returns the bit the first of them
// starts at; the storage is extended to hold them, as append would extend
// a slice.
func (k *Words) grow(n int) int {
	b := k.shape.bits()
	at := int(k.off) + k.n*b
	if need := span(at + n*b); need > len(k.w) {
		k.w = slices.Grow(k.w, need-len(k.w))[:need]
	}
	k.n += n
	return at
}

// putBits writes x, m ≤ 64 bits of it, at bit at of w, keeping the bits
// below at and writing over those above.
func putBits(w []uint64, at int, x uint64, m int) {
	q, r := at>>6, uint(at&63)
	if r == 0 {
		w[q] = x
		return
	}
	w[q] = w[q]&(1<<r-1) | x<<r
	if int(r)+m > 64 {
		w[q+1] = x >> (64 - r)
	}
}

// A bitWriter appends words of one bit width to w from a bit on, holding
// the 64-bit word being filled until it is full; flush writes the last,
// partial one.  w must reach past the last word put, and the bits of its
// first word below the starting bit are kept.
type bitWriter struct {
	w   []uint64
	q   int    // the word of w being filled
	r   uint   // how many of its bits are taken
	acc uint64 // those bits
}

func newBitWriter(w []uint64, at int) bitWriter {
	bw := bitWriter{w: w, q: at >> 6, r: uint(at & 63)}
	if bw.r > 0 {
		bw.acc = w[bw.q] & (1<<bw.r - 1)
	}
	return bw
}

// put appends x, b ≤ 64 bits of it.
func (bw *bitWriter) put(x uint64, b int) {
	bw.acc |= x << bw.r
	if bw.r += uint(b); bw.r >= 64 {
		bw.w[bw.q] = bw.acc
		bw.q++
		bw.r -= 64
		bw.acc = x >> (uint(b) - bw.r)
	}
}

func (bw *bitWriter) flush() {
	if bw.r > 0 {
		bw.w[bw.q] = bw.acc
	}
}

// bitsAt returns the m ≤ 64 bits of w from bit p on.
func bitsAt(w []uint64, p, m int) uint64 {
	q, r := p>>6, uint(p&63)
	x := w[q] >> r
	if int(r)+m > 64 {
		x |= w[q+1] << (64 - r)
	}
	return x & (1<<uint(m) - 1)
}

// Append appends one word, re-encoding the column if its shape does not
// hold the word.
func (k Words) Append(word uint64) Words {
	if !k.shape.fits(word) {
		k = k.reshaped(k.shape.Join(ShapeOf(word)))
	}
	putBits(k.w, k.grow(1), k.shape.encode(word), k.shape.bits())
	return k
}

// AppendWords appends the words of o: 64 bits at a time when the shapes
// agree, word by word into the Join of the two otherwise.
func (k Words) AppendWords(o Words) Words {
	if o.n == 0 {
		return k
	}
	if sh := k.shape.Join(o.shape); sh != k.shape {
		k = k.reshaped(sh)
	}
	k.appendRange(&o, 0, o.n)
	return k
}

// appendRange is AppendWords(o.Slice(lo, hi)) for a column whose shape
// holds o's words.
func (k *Words) appendRange(o *Words, lo, hi int) {
	if hi <= lo {
		return
	}
	b, at := k.shape.bits(), k.grow(hi-lo)
	if o.shape != k.shape {
		bw := newBitWriter(k.w, at)
		for i := lo; i < hi; i++ {
			bw.put(k.shape.encode(o.At(i)), b)
		}
		bw.flush()
		return
	}
	copyBits(k.w, at, o.w, int(o.off)+lo*b, (hi-lo)*b)
}

// copyBits copies n bits of src from bit from on into dst from bit at on,
// keeping dst's bits below at: up to the first 64-bit word of dst it
// reaches, then a whole word of dst at a time, each the two words of src it
// straddles shifted by the one distance between the two bit offsets.
func copyBits(dst []uint64, at int, src []uint64, from, n int) {
	if head := min(n, (64-at&63)&63); head > 0 {
		putBits(dst, at, bitsAt(src, from, head), head)
		at, from, n = at+head, from+head, n-head
	}
	whole, r := n>>6, uint(from&63)
	d, s := dst[at>>6:at>>6+whole], src[from>>6:]
	if r == 0 {
		copy(d, s)
	} else {
		s = s[:whole+1]
		for t := range d {
			d[t] = s[t]>>r | s[t+1]<<(64-r)
		}
	}
	if tail := n & 63; tail > 0 {
		putBits(dst, at+n-tail, bitsAt(src, from+n-tail, tail), tail)
	}
}

// AppendTo appends k's words to dst at width bytes each, big-endian, which
// must hold them (MinWidth): the word column of a store run.
func (k Words) AppendTo(dst []byte, width int) []byte {
	for i := 0; i < k.n; i++ {
		word := k.At(i)
		for s := 8 * (width - 1); s >= 0; s -= 8 {
			dst = append(dst, byte(word>>uint(s)))
		}
	}
	return dst
}

// AppendEncoded appends the words of a store run's word column — src,
// width bytes a word, big-endian — after checking that each packs a valid
// sketch; it appends nothing otherwise.  It is where bytes from disk
// become a column.
func (k Words) AppendEncoded(src []byte, width int) (Words, error) {
	n, sh := len(src)/width, k.shape
	if sh == 0 && n > 0 {
		sh = ShapeOf(decodeWord(src[:width]))
	}
	if sh <= MaxLength {
		// One length, the column's or the first word's: one pass, checking
		// each word as it is written, while every word has that length.
		out := k
		if out.shape != sh {
			out = out.reshaped(sh)
		}
		bw, i := newBitWriter(out.w, out.grow(n)), 0
		for ; i < n; i++ {
			word := decodeWord(src[i*width : (i+1)*width])
			if word&31 != uint64(sh) || word>>5 >= 1<<sh {
				break
			}
			bw.put(word>>5, int(sh))
		}
		if i == n {
			bw.flush()
			return out, nil
		}
		sh = k.shape
	}
	for i := 0; i < n; i++ {
		word := decodeWord(src[i*width : (i+1)*width])
		s := UnpackSketch(word)
		if !s.Valid() {
			return k, fmt.Errorf("sketch: word %#x is no valid sketch", word)
		}
		sh = sh.Join(Shape(s.Length))
	}
	if sh != k.shape {
		k = k.reshaped(sh)
	}
	b := sh.bits()
	bw := newBitWriter(k.w, k.grow(n))
	for i := 0; i < n; i++ {
		bw.put(sh.encode(decodeWord(src[i*width:(i+1)*width])), b)
	}
	bw.flush()
	return k, nil
}

// decodeWord reads a word written big-endian in len(src) bytes.
func decodeWord(src []byte) uint64 {
	var word uint64
	for _, c := range src {
		word = word<<8 | uint64(c)
	}
	return word
}

// reshaped returns k re-encoded at shape sh, which holds every word of k,
// with room for as many words as k had; an empty k keeps its storage.
func (k Words) reshaped(sh Shape) Words {
	if k.n == 0 {
		return Words{shape: sh, off: k.off, w: k.w}
	}
	out := MakeWords(sh, k.n, (64*cap(k.w)-int(k.off))/k.shape.bits())
	bw := newBitWriter(out.w, 0)
	for i, b := 0, sh.bits(); i < k.n; i++ {
		bw.put(sh.encode(k.At(i)), b)
	}
	bw.flush()
	return out
}
