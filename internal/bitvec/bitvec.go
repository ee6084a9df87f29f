package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-length packed bit vector.  Index 0 is the first
// attribute.  The zero value is an empty vector of length 0.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of length n.  It panics if n is negative.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// FromBits builds a vector from a slice of booleans.
func FromBits(bits []bool) Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i, true)
		}
	}
	return v
}

// FromUint encodes the low width bits of x MSB-first into a new vector of
// length width.  This is the binary layout the paper uses for integer
// attributes (a_u1 is the highest bit).
func FromUint(x uint64, width int) Vector {
	v := New(width)
	for i := 0; i < width; i++ {
		bit := (x >> uint(width-1-i)) & 1
		if bit == 1 {
			v.Set(i, true)
		}
	}
	return v
}

// FromString parses a vector from a string of '0' and '1' characters.
func FromString(s string) (Vector, error) {
	v := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q at position %d", c, i)
		}
	}
	return v, nil
}

// MustFromString is FromString that panics on invalid input; for constants
// and tests.
func MustFromString(s string) Vector {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Get reports whether bit i is set.  It panics if i is out of range.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i to b.  It panics if i is out of range.
func (v Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i>>6] |= 1 << uint(i&63)
	} else {
		v.words[i>>6] &^= 1 << uint(i&63)
	}
}

// Flip inverts bit i and returns its new value.
func (v Vector) Flip(i int) bool {
	v.check(i)
	v.words[i>>6] ^= 1 << uint(i&63)
	return v.Get(i)
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and w have the same length and contents.
func (v Vector) Equal(w Vector) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Hamming returns the Hamming distance between v and w.  It panics if the
// lengths differ.
func (v Vector) Hamming(w Vector) int {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: Hamming distance of vectors with lengths %d and %d", v.n, w.n))
	}
	d := 0
	for i := range v.words {
		d += bits.OnesCount64(v.words[i] ^ w.words[i])
	}
	return d
}

// Xor returns the element-wise exclusive or of v and w.  It panics if the
// lengths differ.  Appendix E of the paper builds "virtual bits"
// q_i = a_i XOR b_i this way.
func (v Vector) Xor(w Vector) Vector {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: Xor of vectors with lengths %d and %d", v.n, w.n))
	}
	out := v.Clone()
	for i := range out.words {
		out.words[i] ^= w.words[i]
	}
	return out
}

// Uint interprets the whole vector MSB-first as an unsigned integer.  It
// panics if the vector is longer than 64 bits.
func (v Vector) Uint() uint64 {
	if v.n > 64 {
		panic(fmt.Sprintf("bitvec: Uint on vector of length %d > 64", v.n))
	}
	var x uint64
	for i := 0; i < v.n; i++ {
		x <<= 1
		if v.Get(i) {
			x |= 1
		}
	}
	return x
}

// Bytes returns a canonical byte encoding of the vector (length, then packed
// words little-endian).  Two vectors are Equal iff their Bytes are equal, so
// the encoding is suitable as PRF input and as a map key.
func (v Vector) Bytes() []byte {
	return v.AppendBytes(make([]byte, 0, v.EncodedLen()))
}

// EncodedLen returns the length of the Bytes encoding.
func (v Vector) EncodedLen() int { return 8 + 8*len(v.words) }

// AppendBytes appends the Bytes encoding to dst, for callers that assemble
// PRF messages into reusable scratch without allocating.
func (v Vector) AppendBytes(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(v.n))
	for _, w := range v.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// AppendPacked appends the vector's bits alone, without its length: ⌈n/8⌉
// bytes, bit i at bit i%8 of byte i/8 — the Bytes encoding's words cut at
// the last byte that holds a bit.  Vectors of one length are Equal iff their
// packed bytes are equal.
func (v Vector) AppendPacked(dst []byte) []byte {
	for i := 0; i < (v.n+7)/8; i++ {
		dst = append(dst, byte(v.words[i/8]>>(8*(i%8))))
	}
	return dst
}

// ParseBytes reconstructs a vector from its Bytes encoding.
func ParseBytes(b []byte) (Vector, error) {
	if len(b) < 8 {
		return Vector{}, fmt.Errorf("bitvec: encoding too short (%d bytes)", len(b))
	}
	// Bound the claimed bit length by what the buffer could possibly
	// hold before any int arithmetic: a hostile 64-bit length makes
	// n+63 wrap (e.g. n = 2^64-63 yields words = 0) and would otherwise
	// reach New() with a negative length and panic.
	n := binary.BigEndian.Uint64(b)
	if n > uint64(len(b)-8)*8 {
		return Vector{}, fmt.Errorf("bitvec: encoding claims %d bits in %d bytes", n, len(b))
	}
	words := (int(n) + 63) / 64
	if len(b) != 8+8*words {
		return Vector{}, fmt.Errorf("bitvec: encoding of length-%d vector must be %d bytes, got %d", n, 8+8*words, len(b))
	}
	v := New(int(n))
	for i := range v.words {
		v.words[i] = binary.LittleEndian.Uint64(b[8+8*i:])
	}
	// Reject junk beyond the final bit so the encoding stays canonical.
	if rem := int(n) % 64; rem != 0 && words > 0 {
		if v.words[words-1]>>uint(rem) != 0 {
			return Vector{}, fmt.Errorf("bitvec: non-canonical encoding has bits beyond length %d", n)
		}
	}
	return v, nil
}

// String renders the vector as a string of '0' and '1'.
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
