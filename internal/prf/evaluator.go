package prf

import "encoding/binary"

// Evaluator is a cheap per-goroutine handle on a keyed PRF.  It owns its
// hash (the scalar engine, see resumed) and scratch buffer, so evaluations
// are lock-free and allocation-free; the key material itself is shared
// immutably with the parent Func.  An Evaluator is NOT safe for concurrent
// use — create one per goroutine (they are small) or use the thread-safe
// Func facade.
type Evaluator struct {
	mac     *hmacState
	eng     resumed
	scratch []byte
}

// NewEvaluator returns a fresh evaluation handle for this function.  The
// handle shares the (immutable) key schedule with f, so creating one costs
// only a small struct allocation.
func (f *Func) NewEvaluator() *Evaluator {
	return &Evaluator{mac: f.mac}
}

// Rebind points the evaluator at a (possibly different) keyed function while
// keeping its internal buffers, so pooled evaluators can be reused across
// keys without reallocating.
func (e *Evaluator) Rebind(f *Func) { e.mac = f.mac }

// DigestMsg returns the 32-byte PRF output for a message that the caller
// has already tuple-encoded (see AppendTupleHeader/AppendPart).  This is
// the allocation-free core every other evaluation method reduces to.
func (e *Evaluator) DigestMsg(msg []byte) [DigestSize]byte {
	return e.eng.hmac(e.mac, msg)
}

// Uint64Msg is DigestMsg truncated to a uniform 64-bit integer.
func (e *Evaluator) Uint64Msg(msg []byte) uint64 {
	d := e.DigestMsg(msg)
	return binary.BigEndian.Uint64(d[:8])
}

// Digest returns the 32-byte PRF output for the given input tuple.
func (e *Evaluator) Digest(parts ...[]byte) [DigestSize]byte {
	e.scratch = encodeTuple(e.scratch[:0], parts...)
	return e.DigestMsg(e.scratch)
}

// Uint64 returns a uniform pseudorandom 64-bit integer derived from the
// input tuple.
func (e *Evaluator) Uint64(parts ...[]byte) uint64 {
	d := e.Digest(parts...)
	return binary.BigEndian.Uint64(d[:8])
}

// Float64 returns a uniform pseudorandom value in [0,1) derived from the
// input tuple.
func (e *Evaluator) Float64(parts ...[]byte) float64 {
	// 53 bits of mantissa.
	return float64(e.Uint64(parts...)>>11) / (1 << 53)
}

// Expand fills out with a pseudorandom stream derived from the input tuple,
// using counter mode over the keyed hash.
func (e *Evaluator) Expand(out []byte, parts ...[]byte) {
	base := encodeTuple(e.scratch[:0], parts...)
	n := 0
	var ctr [8]byte
	for counter := uint64(0); n < len(out); counter++ {
		binary.BigEndian.PutUint64(ctr[:], counter)
		msg := append(base, ctr[:]...)
		d := e.DigestMsg(msg)
		n += copy(out[n:], d[:])
		base = msg[:len(base)]
	}
	e.scratch = base
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
