package sketch

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Pack packs a valid sketch (Length ≤ MaxLength = 30, so Key < 2^30) into
// one word, the key above a 5-bit length.  It is the only packed form of a
// sketch: what a column is read and written as, what the record loop
// decodes.
func (s Sketch) Pack() uint64 { return s.Key<<5 | uint64(s.Length) }

// UnpackSketch reverses Pack.
func UnpackSketch(word uint64) Sketch { return Sketch{Key: word >> 5, Length: int(word & 31)} }

// A Shape is how a column holds its words: the one length ℓ, 1 to
// MaxLength, its sketches share.  A deployment's Params fix ℓ and
// admission refuses any other (Table.Probe, ErrForeignLength), so a column
// holds ℓ once and each sketch's key in exactly ℓ bits, the paper's
// ⌈log log O(M)⌉-bit disclosure and nothing else.  The zero Shape is a
// column's before its first word.
type Shape uint8

// Bits is how many bits a word of shape s occupies in its column, in
// memory and on disk: its key's.
func (s Shape) Bits() int { return int(s) }

// fits reports whether a column of shape s holds word: a valid sketch of
// length s.
func (s Shape) fits(word uint64) bool {
	return s != 0 && s <= MaxLength && word&31 == uint64(s) && word>>5 < 1<<s
}

// Words is a column of Pack words of one length, bit-packed: each word
// takes exactly the bits its column's Shape gives it, so the 9-bit
// sketches of a million-user deployment hold 9 bits a record.  A column
// takes its shape from its first word and holds no other: appending a
// sketch of another length is a programming error, which admission rules
// out before a word reaches a column.  The bits are the column's on disk
// too: a store run writes them and reads them back, checked, through
// AppendBits and AppendBitsFrom, and a WordWriter writes the same bytes a
// word at a time.
//
// Like a slice, a Words value shares its storage with the values it was
// sliced from or appended into.  The zero Words is empty.
type Words struct {
	shape Shape
	off   uint8 // the bit of w[0] where word 0 starts
	n     int
	// w holds word i's key at bits [off + i·b, off + (i+1)·b), b the shape's
	// bits, counted from the low bit of w[0] up; it is exactly as long as
	// the words need.  Bits past the last word are undefined.
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

// Shape returns how the column holds its words: their one length.
func (k Words) Shape() Shape { return k.shape }

// raw returns the key of word i.
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

// setRaw overwrites the key of word i with x.
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
func (k Words) At(i int) uint64 { return k.raw(i)<<5 | uint64(k.shape) }

// Sketch returns the sketch word i packs.
func (k Words) Sketch(i int) Sketch { return Sketch{Key: k.raw(i), Length: int(k.shape)} }

// mustFit panics unless the column's shape holds word.
func (k Words) mustFit(word uint64) {
	if !k.shape.fits(word) {
		panic(fmt.Sprintf("sketch: word %#x does not fit a column of shape %d", word, k.shape))
	}
}

// Set overwrites word i with a word of the column's length.
func (k Words) Set(i int, word uint64) {
	k.mustFit(word)
	k.setRaw(i, word>>5)
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

// takeShape gives an empty column the shape of the words about to be
// appended to it, and panics if a non-empty column has another: the one
// length a column holds.
func (k *Words) takeShape(shape Shape) {
	switch {
	case k.n == 0:
		k.shape = shape
	case shape != k.shape:
		panic(fmt.Sprintf("sketch: words of shape %d appended to a column of shape %d", shape, k.shape))
	}
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

// Append appends one word, which the column's length — or, for an empty
// column, any valid sketch's — must hold.
func (k Words) Append(word uint64) Words {
	if k.n == 0 {
		k.shape = Shape(word & 31)
	}
	k.mustFit(word)
	putBits(k.w, k.grow(1), word>>5, k.shape.Bits())
	return k
}

// AppendWords appends the words of o, which must be of k's length unless
// k is empty, 64 bits at a time.
func (k Words) AppendWords(o Words) Words {
	if o.n == 0 {
		return k
	}
	k.takeShape(o.shape)
	k.appendRange(&o, 0, o.n)
	return k
}

// appendRange is AppendWords(o.Slice(lo, hi)) for a column of o's shape.
func (k *Words) appendRange(o *Words, lo, hi int) {
	if hi <= lo {
		return
	}
	if o.shape != k.shape {
		panic(fmt.Sprintf("sketch: words of shape %d appended to a column of shape %d", o.shape, k.shape))
	}
	b, at := k.shape.Bits(), k.grow(hi-lo)
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
// exactly the bytes AppendBits writes for n words of the given shape —
// after checking them: a shape of one length (1 to MaxLength), the column's
// own unless it is empty, and pad bits of zero; a key of one length is a
// valid sketch whatever its bits.  It appends nothing otherwise.  It is
// where bytes from disk become a column, as a copy of the bits.
func (k Words) AppendBitsFrom(src []byte, shape Shape, n int) (Words, error) {
	if shape == 0 || shape > MaxLength {
		return k, fmt.Errorf("sketch: a word column of shape %d", shape)
	}
	if k.n > 0 && shape != k.shape {
		return k, fmt.Errorf("sketch: words of shape %d for a column of shape %d", shape, k.shape)
	}
	b := shape.Bits()
	if len(src) != (n*b+7)/8 {
		return k, fmt.Errorf("sketch: %d bytes for %d words of shape %d", len(src), n, shape)
	}
	if pad := n * b & 7; pad != 0 && src[len(src)-1]>>uint(pad) != 0 {
		return k, fmt.Errorf("sketch: pad bits %#x after %d words of shape %d", src[len(src)-1]>>uint(pad), n, shape)
	}
	if n == 0 {
		return k, nil
	}
	k.shape = shape
	bw := newBitWriter(k.w, k.grow(n))
	for p, total := 0, n*b; p < total; p += 64 {
		m := min(64, total-p)
		bw.put(loadLE(src[p>>3:], m), m)
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

// Put writes word, a sketch of the writer's length, into dst.
func (ww *WordWriter) Put(dst []byte, word uint64) {
	if !ww.shape.fits(word) {
		panic(fmt.Sprintf("sketch: word %#x does not fit a column of shape %d", word, ww.shape))
	}
	ww.acc |= word >> 5 << ww.held
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
