package prf

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// MinKeyBits is the minimum generator key length, in bits, that the paper
// considers sufficient for the global pseudorandom function ("with the
// current state of the art 300 bit is more than sufficient").
const MinKeyBits = 300

// MinKeyBytes is MinKeyBits rounded up to whole bytes.
const MinKeyBytes = (MinKeyBits + 7) / 8

// ErrShortKey is returned by GeneratorKey when the supplied generator key
// is shorter than MinKeyBytes.
var ErrShortKey = errors.New("prf: generator key shorter than 300 bits")

// GeneratorKey is where a generator key enters from outside the program:
// it decodes the -keyhex value of a daemon or client and refuses, with
// ErrShortKey, a key shorter than the 300 bits the paper asks of H's
// generator.  The empty string selects the deterministic development key
// (MinKeyBytes bytes, the same in every binary, so a quickstart fleet
// agrees on H without ceremony); production deployments pass their own.
// The constructors below keep accepting a key of any length — tests key
// them with short strings.
func GeneratorKey(keyHex string) ([]byte, error) {
	if keyHex == "" {
		key := make([]byte, MinKeyBytes)
		for i := range key {
			key[i] = byte(0x42 + i)
		}
		return key, nil
	}
	key, err := hex.DecodeString(keyHex)
	if err != nil {
		return nil, fmt.Errorf("prf: generator key is not hex: %w", err)
	}
	if len(key) < MinKeyBytes {
		return nil, fmt.Errorf("%w: got %d bits, want >= %d", ErrShortKey, len(key)*8, MinKeyBits)
	}
	return key, nil
}

// Func is the keyed pseudorandom function H used throughout the paper.  It
// maps an arbitrary tuple of byte strings to uniform pseudorandom output via
// HMAC-SHA-256 in counter mode.  A Func is safe for concurrent use and
// lock-free: the key schedule (with its cached ipad/opad midstates) is
// immutable and shared, while the scalar engine and the buffer a tuple is
// encoded into are pooled per call.  Hot loops hold a MultiEvaluator (see
// NewMultiEvaluator) and skip the pool round-trip entirely.
type Func struct {
	mac  *hmacState
	pool sync.Pool // of *scratch
}

// scratch is what one evaluation through Func needs of its own.
type scratch struct {
	eng resumed
	buf []byte
}

// NewFunc creates a keyed pseudorandom function from a generator key.  The
// key should be at least MinKeyBytes long; shorter keys are accepted (they
// are useful in tests) — GeneratorKey, which every binary reads its key
// through, is what rejects them.
func NewFunc(key []byte) *Func {
	f := &Func{mac: newHMACState(key)}
	f.pool.New = func() any { return new(scratch) }
	return f
}

// encodeTuple appends an unambiguous encoding of parts to dst: the number of
// parts, then each part length-prefixed.  Length prefixing guarantees that
// distinct tuples never collide as byte strings (("ab","c") != ("a","bc")),
// which the independence argument of the paper relies on.
func encodeTuple(dst []byte, parts ...[]byte) []byte {
	dst = AppendTupleHeader(dst, len(parts))
	for _, p := range parts {
		dst = AppendPart(dst, p)
	}
	return dst
}

// Tuple-encoding append helpers.  They expose the exact wire format of
// encodeTuple so batch kernels can assemble messages incrementally into
// caller-owned scratch — encoding shared tuple components once and splicing
// the varying ones per record — while staying bit-compatible with the
// varargs path.

// AppendTupleHeader appends the part-count prefix of the tuple encoding.
func AppendTupleHeader(dst []byte, parts int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(parts))
}

// AppendPartHeader appends the length prefix for a part of n bytes; the
// caller must follow it with exactly n bytes of part content.
func AppendPartHeader(dst []byte, n int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(n))
}

// AppendPart appends one complete length-prefixed tuple part.
func AppendPart(dst, part []byte) []byte {
	dst = AppendPartHeader(dst, len(part))
	return append(dst, part...)
}

// Digest returns the 32-byte PRF output for the given input tuple.
func (f *Func) Digest(parts ...[]byte) [DigestSize]byte {
	s := f.pool.Get().(*scratch)
	s.buf = encodeTuple(s.buf[:0], parts...)
	d := s.eng.hmac(f.mac, s.buf)
	f.pool.Put(s)
	return d
}

// Uint64 returns a uniform pseudorandom 64-bit integer derived from the
// input tuple.
func (f *Func) Uint64(parts ...[]byte) uint64 {
	d := f.Digest(parts...)
	return binary.BigEndian.Uint64(d[:8])
}

// Expand fills out with a pseudorandom stream derived from the input tuple,
// using counter mode over the keyed hash.  Distinct counters give
// independent blocks, so arbitrarily long streams can be derived from a
// single tuple.
func (f *Func) Expand(out []byte, parts ...[]byte) {
	s := f.pool.Get().(*scratch)
	base := encodeTuple(s.buf[:0], parts...)
	n := 0
	var ctr [8]byte
	for counter := uint64(0); n < len(out); counter++ {
		binary.BigEndian.PutUint64(ctr[:], counter)
		msg := append(base, ctr[:]...)
		d := s.eng.hmac(f.mac, msg)
		n += copy(out[n:], d[:])
		base = msg[:len(base)]
	}
	s.buf = base
	f.pool.Put(s)
}

// DeriveKey derives a sub-key of the requested length from the generator
// key and a label.  It is used to give each database (or each simulation
// run) an independent function, as the paper suggests via the standard
// constructions of Goldreich's book.
func (f *Func) DeriveKey(label string, nBytes int) []byte {
	out := make([]byte, nBytes)
	f.Expand(out, []byte("derive"), []byte(label))
	return out
}
