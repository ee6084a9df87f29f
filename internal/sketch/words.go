package sketch

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Pack packs a valid sketch (Length ≤ MaxLength = 30, so Key < 2^30) into
// one word, the key above a 5-bit length.  It is the only packed form of a
// sketch: what a column is read as, what a column of mixed lengths holds,
// what the record loop decodes.
func (s Sketch) Pack() uint64 { return s.Key<<5 | uint64(s.Length) }

// UnpackSketch reverses Pack.
func UnpackSketch(word uint64) Sketch { return Sketch{Key: word >> 5, Length: int(word & 31)} }

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

// MaxShape is the widest shape a column of valid sketches takes: whole
// Pack words of the longest, a 30-bit key above a 5-bit length.  A word
// column on disk has a shape from 1 to MaxShape.
const MaxShape = Shape(MaxLength + MaxLength + 5)

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

// Bits is how many bits a word of shape s occupies in its column, in
// memory and on disk.
func (s Shape) Bits() int {
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
	return s.Bits()
}

// fits reports whether a column of shape s holds word as it is.
func (s Shape) fits(word uint64) bool {
	if s <= MaxLength {
		return s != 0 && word&31 == uint64(s) && word>>5 < 1<<s
	}
	return bits.Len64(word) <= s.Bits()
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
// are the column's on disk too: a store run writes them and reads them
// back, checked, through AppendBits and AppendBitsFrom, and a WordWriter
// writes the same bytes a word at a time.
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
	b := shape.Bits()
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
	b := k.shape.Bits()
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
	b := k.shape.Bits()
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
	b := k.shape.Bits()
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
	b := k.shape.Bits()
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
	putBits(k.w, k.grow(1), k.shape.encode(word), k.shape.Bits())
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
	b, at := k.shape.Bits(), k.grow(hi-lo)
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

// AppendBits appends k's words to dst as a store run's word column holds
// them: the column's bits, ⌈Len·Bits/8⌉ bytes, low bit first, the pad bits
// of the last byte zero — a copy of what memory holds, 64 bits at a time.
func (k Words) AppendBits(dst []byte) []byte {
	n := k.n * k.shape.Bits()
	for p := 0; p < n; p += 64 {
		m := min(64, n-p)
		x := bitsAt(k.w, int(k.off)+p, m)
		if m == 64 {
			dst = binary.LittleEndian.AppendUint64(dst, x)
			continue
		}
		for ; m > 0; m -= 8 {
			dst = append(dst, byte(x))
			x >>= 8
		}
	}
	return dst
}

// AppendBitsFrom appends the n words of a store run's word column — src,
// exactly the bytes AppendBits writes for n words of the given shape — after
// checking them: a shape a column of valid sketches has (1 to MaxShape), pad
// bits of zero, and under whole words every word a valid sketch (a key of
// one length is one whatever its bits).  It appends nothing otherwise.  It
// is where bytes from disk become a column: a copy of the bits when the
// column has that shape or none yet, word by word into the Join of the two
// otherwise.
func (k Words) AppendBitsFrom(src []byte, shape Shape, n int) (Words, error) {
	if shape == 0 || shape > MaxShape {
		return k, fmt.Errorf("sketch: a word column of shape %d", shape)
	}
	b := shape.Bits()
	if len(src) != (n*b+7)/8 {
		return k, fmt.Errorf("sketch: %d bytes for %d words of shape %d", len(src), n, shape)
	}
	if pad := n * b & 7; pad != 0 && src[len(src)-1]>>uint(pad) != 0 {
		return k, fmt.Errorf("sketch: pad bits %#x after %d words of shape %d", src[len(src)-1]>>uint(pad), n, shape)
	}
	if shape > MaxLength {
		for i := 0; i < n; i++ {
			if word := streamAt(src, i*b, b); !UnpackSketch(word).Valid() {
				return k, fmt.Errorf("sketch: word %#x is no valid sketch", word)
			}
		}
	}
	if n == 0 {
		return k, nil
	}
	sh := k.shape.Join(shape)
	if sh != k.shape {
		k = k.reshaped(sh)
	}
	bw := newBitWriter(k.w, k.grow(n))
	if sh == shape {
		for p, total := 0, n*b; p < total; p += 64 {
			m := min(64, total-p)
			bw.put(loadLE(src[p>>3:], m), m)
		}
	} else {
		for i, to := 0, sh.Bits(); i < n; i++ {
			bw.put(sh.encode(shape.decode(streamAt(src, i*b, b))), to)
		}
	}
	bw.flush()
	return k, nil
}

// A WordWriter writes words one at a time into a word column laid out as
// AppendBits lays it out, from a byte offset of a buffer on: what a store's
// log writes a run's column with, straight from the sketches it is given,
// when the run's records arrive between other runs'.  The bytes from the
// offset on must be the room reserved for the column, ⌈n·Bits/8⌉ for n
// words; Flush writes the last, partial byte.
type WordWriter struct {
	shape Shape
	next  int    // the byte of the buffer it fills next
	acc   uint64 // the bits it holds for it, and any after
	held  uint   // how many bits acc holds
}

// NewWordWriter returns a writer of words of the given shape into a buffer
// from byte at on.
func NewWordWriter(shape Shape, at int) WordWriter { return WordWriter{shape: shape, next: at} }

// Put writes word, which the shape must hold, into dst.
func (ww *WordWriter) Put(dst []byte, word uint64) {
	if !ww.shape.fits(word) {
		panic(fmt.Sprintf("sketch: word %#x does not fit a column of shape %d", word, ww.shape))
	}
	ww.acc |= ww.shape.encode(word) << ww.held
	for ww.held += uint(ww.shape.Bits()); ww.held >= 8; ww.held -= 8 {
		dst[ww.next] = byte(ww.acc)
		ww.next, ww.acc = ww.next+1, ww.acc>>8
	}
}

// Flush writes the bits put since the last whole byte, if any, into dst,
// the pad bits above them zero.
func (ww *WordWriter) Flush(dst []byte) {
	if ww.held > 0 {
		dst[ww.next] = byte(ww.acc)
	}
}

// loadLE returns the m ≤ 64 bits of a little-endian byte stream src from
// its first bit on, reading only the bytes they occupy.
func loadLE(src []byte, m int) uint64 {
	if m == 64 {
		return binary.LittleEndian.Uint64(src)
	}
	var x uint64
	for i := 0; 8*i < m; i++ {
		x |= uint64(src[i]) << (8 * uint(i))
	}
	return x & (1<<uint(m) - 1)
}

// streamAt returns the m ≤ 57 bits of a little-endian byte stream src from
// bit p on.
func streamAt(src []byte, p, m int) uint64 {
	q, r := p>>3, uint(p&7)
	return loadLE(src[q:], int(r)+m) >> r
}

// reshaped returns k re-encoded at shape sh, which holds every word of k,
// with room for as many words as k had; an empty k keeps its storage.
func (k Words) reshaped(sh Shape) Words {
	if k.n == 0 {
		return Words{shape: sh, off: k.off, w: k.w}
	}
	out := MakeWords(sh, k.n, (64*cap(k.w)-int(k.off))/k.shape.Bits())
	bw := newBitWriter(out.w, 0)
	for i, b := 0, sh.Bits(); i < k.n; i++ {
		bw.put(sh.encode(k.At(i)), b)
	}
	bw.flush()
	return out
}
