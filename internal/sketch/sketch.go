package sketch

import (
	"encoding/binary"
	"fmt"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
)

// Sketch is the value a user publishes for one attribute subset: an ℓ-bit
// key into the public function H.  It is the entire disclosure — dlog log
// O(M)e bits per subset, as the paper emphasises.
type Sketch struct {
	// Key is the published key value, in [0, 2^Length).
	Key uint64
	// Length is the key length ℓ in bits.
	Length int
}

// Valid reports whether the key fits in the declared length and the length
// is in range.
func (s Sketch) Valid() bool {
	return s.Length >= 1 && s.Length <= MaxLength && s.Key < 1<<uint(s.Length)
}

// Bytes returns a canonical encoding of the sketch key used as the s
// component of the PRF input tuple (1 byte of length, then the key
// big-endian in the minimum number of bytes).
func (s Sketch) Bytes() []byte {
	return s.AppendBytes(make([]byte, 0, s.EncodedLen()))
}

// EncodedLen returns the length of the Bytes encoding.
func (s Sketch) EncodedLen() int { return 1 + (s.Length+7)/8 }

// AppendBytes appends the Bytes encoding to dst, for callers that assemble
// PRF messages into reusable scratch without allocating.
func (s Sketch) AppendBytes(dst []byte) []byte {
	nBytes := (s.Length + 7) / 8
	dst = append(dst, byte(s.Length))
	for i := nBytes - 1; i >= 0; i-- {
		dst = append(dst, byte(s.Key>>uint(8*i)))
	}
	return dst
}

// ParseSketch reconstructs a sketch from its Bytes encoding.
func ParseSketch(b []byte) (Sketch, error) {
	if len(b) < 1 {
		return Sketch{}, fmt.Errorf("sketch: empty encoding")
	}
	length := int(b[0])
	nBytes := (length + 7) / 8
	if length < 1 || length > MaxLength {
		return Sketch{}, fmt.Errorf("%w: encoded length %d", ErrBadLength, length)
	}
	if len(b) != 1+nBytes {
		return Sketch{}, fmt.Errorf("sketch: encoding of ℓ=%d sketch must be %d bytes, got %d", length, 1+nBytes, len(b))
	}
	var tmp [8]byte
	copy(tmp[8-nBytes:], b[1:])
	s := Sketch{Key: binary.BigEndian.Uint64(tmp[:]), Length: length}
	if !s.Valid() {
		return Sketch{}, fmt.Errorf("sketch: key %d does not fit in %d bits", s.Key, length)
	}
	return s, nil
}

// String implements fmt.Stringer.
func (s Sketch) String() string { return fmt.Sprintf("sketch(%d/%d bits)", s.Key, s.Length) }

// Published is one published record: user id, the subset it describes and
// the sketch itself.  In the paper's model this triple is public; the
// profile bits it was derived from never leave the user.
type Published struct {
	ID     bitvec.UserID
	Subset bitvec.Subset
	S      Sketch
}

// Evaluate computes H(id, B, v, s) — the public evaluation shared by
// Algorithm 1 (during sketch generation) and Algorithm 2 (during querying).
// Anyone holding the published sketch can compute it for any candidate
// value v.  The call goes through a pooled kernel; loops over many records
// for one (B, v) should hold a Kernel directly instead.
func Evaluate(h prf.BitSource, id bitvec.UserID, b bitvec.Subset, v bitvec.Vector, s Sketch) bool {
	k := AcquireKernel(h, b, v)
	r := k.Evaluate(id, s)
	k.Release()
	return r
}
