package sketch

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
)

// Kernel is a single-goroutine batch evaluator for the public function H,
// specialised to one query pair (B, v).  The tuple components every record
// of an Algorithm 2 query shares — the subset tag and the candidate value —
// are encoded once at Reset; per-record evaluation then only splices the
// 8-byte user id and the sketch key into reusable scratch and runs the
// midstate-cached HMAC, performing no allocations and taking no locks.
//
// A Kernel is not safe for concurrent use.  Parallel record loops create
// one per worker goroutine (directly or via AcquireKernel).
type Kernel struct {
	h  prf.BitSource
	es prf.EvaluatorSource // nil → fall back to h.Bit
	be prf.BitEvaluator

	b bitvec.Subset
	v bitvec.Vector
	// mid holds the length-prefixed (B, v) tuple parts shared by every
	// record of the query.
	mid     []byte
	scratch []byte
	// Word-batch staging: up to 64 assembled messages live contiguously in
	// msgBuf, sliced out via offs after the buffer stops growing (so the
	// sub-slices never alias a stale backing array).
	msgBuf []byte
	offs   []int
	msgs   [][]byte
}

// NewKernel returns a kernel specialised to (h, b, v).
func NewKernel(h prf.BitSource, b bitvec.Subset, v bitvec.Vector) *Kernel {
	k := &Kernel{}
	k.Reset(h, b, v)
	return k
}

// Reset respecialises the kernel to a new source and query pair, reusing
// its internal buffers.
func (k *Kernel) Reset(h prf.BitSource, b bitvec.Subset, v bitvec.Vector) {
	k.h, k.b, k.v = h, b, v
	k.es = nil
	if es, ok := h.(prf.EvaluatorSource); ok {
		k.es = es
		es.BindEvaluator(&k.be)
		mid := prf.AppendPartHeader(k.mid[:0], b.TagLen())
		mid = b.AppendTag(mid)
		mid = prf.AppendPartHeader(mid, v.EncodedLen())
		k.mid = v.AppendBytes(mid)
	}
}

// Evaluate computes H(id, B, v, s) for one record, bit-identical to the
// package-level Evaluate.
func (k *Kernel) Evaluate(id bitvec.UserID, s Sketch) bool {
	if k.es == nil {
		return k.h.Bit(id.Bytes(), k.b.Tag(), k.v.Bytes(), s.Bytes())
	}
	msg := prf.AppendTupleHeader(k.scratch[:0], 4)
	msg = prf.AppendPartHeader(msg, 8)
	msg = binary.BigEndian.AppendUint64(msg, uint64(id))
	msg = append(msg, k.mid...)
	msg = prf.AppendPartHeader(msg, s.EncodedLen())
	msg = s.AppendBytes(msg)
	k.scratch = msg
	return k.be.BitMsg(msg)
}

// AppendRecordPrefix appends the tuple header and user-id part of the PRF
// message — the parts shared by every (B, v) evaluation of one record.  A
// plan executor evaluating many query pairs against the same record encodes
// this prefix (and the sketch suffix) once and reuses it across kernels,
// so each extra pair costs only the kernel's cached (B, v) midsection.
func AppendRecordPrefix(dst []byte, id bitvec.UserID) []byte {
	dst = prf.AppendTupleHeader(dst, 4)
	dst = prf.AppendPartHeader(dst, 8)
	return binary.BigEndian.AppendUint64(dst, uint64(id))
}

// AppendRecordSuffix appends the sketch-key part of the PRF message, shared
// by every (B, v) evaluation of one record.
func AppendRecordSuffix(dst []byte, s Sketch) []byte {
	dst = prf.AppendPartHeader(dst, s.EncodedLen())
	return s.AppendBytes(dst)
}

// EvaluateWord evaluates a view of up to 64 records against the kernel's
// (B, v), returning the outcomes as a packed bit word: bit i is set iff
// record i matches.  The messages are staged together and hashed through
// the multi-lane PRF batch path, bit-identical to 64 Evaluate calls.
func (k *Kernel) EvaluateWord(records View) uint64 {
	if records.Len() > 64 {
		panic("sketch: EvaluateWord takes at most 64 records")
	}
	if k.es == nil {
		return k.slowWord(records)
	}
	buf, offs := k.msgBuf[:0], k.offs[:0]
	var ids [IDBlockLen]bitvec.UserID
	for i, id := range records.ids.Block(0, &ids) {
		offs = append(offs, len(buf))
		buf = AppendRecordPrefix(buf, id)
		buf = append(buf, k.mid...)
		buf = AppendRecordSuffix(buf, records.keys.Sketch(i))
	}
	offs = append(offs, len(buf))
	k.msgBuf, k.offs = buf, offs
	return k.be.BitMsgs64(k.sliceMsgs(records.Len()))
}

// EvaluatePartsWord is EvaluateWord over pre-encoded per-record prefix and
// suffix parts (see AppendRecordPrefix/AppendRecordSuffix): prefixes[i] and
// suffixes[i] belong to record i.  Plan executors evaluating many query
// pairs against the same 64 records encode the parts once and replay them
// through each pair's kernel, paying only the cached (B, v) midsection per
// kernel.  Bit-identical to 64 Evaluate calls.
func (k *Kernel) EvaluatePartsWord(records View, prefixes, suffixes [][]byte) uint64 {
	if records.Len() > 64 {
		panic("sketch: EvaluatePartsWord takes at most 64 records")
	}
	if k.es == nil {
		return k.slowWord(records)
	}
	buf, offs := k.msgBuf[:0], k.offs[:0]
	for i := range prefixes[:records.Len()] {
		offs = append(offs, len(buf))
		buf = append(buf, prefixes[i]...)
		buf = append(buf, k.mid...)
		buf = append(buf, suffixes[i]...)
	}
	offs = append(offs, len(buf))
	k.msgBuf, k.offs = buf, offs
	return k.be.BitMsgs64(k.sliceMsgs(records.Len()))
}

// slowWord is the word evaluation for sources without the fast evaluator
// path (the test oracle): one facade call per record.
func (k *Kernel) slowWord(records View) uint64 {
	var w uint64
	var ids [IDBlockLen]bitvec.UserID
	for i, id := range records.ids.Block(0, &ids) {
		if k.h.Bit(id.Bytes(), k.b.Tag(), k.v.Bytes(), records.keys.Sketch(i).Bytes()) {
			w |= 1 << uint(i)
		}
	}
	return w
}

// sliceMsgs carves the first n staged messages out of msgBuf using the
// recorded offsets, after all appends are done.
func (k *Kernel) sliceMsgs(n int) [][]byte {
	msgs := k.msgs[:0]
	for i := 0; i < n; i++ {
		msgs = append(msgs, k.msgBuf[k.offs[i]:k.offs[i+1]])
	}
	k.msgs = msgs
	return msgs
}

// CountMatches evaluates every record against the kernel's (B, v) and
// returns how many evaluate to 1 — the inner sum of Algorithm 2.  Records
// are processed 64 at a time through the multi-lane batch path.
func (k *Kernel) CountMatches(records View) int {
	hits := 0
	for lo := 0; lo < records.Len(); lo += 64 {
		hits += bits.OnesCount64(k.EvaluateWord(records.Slice(lo, min(lo+64, records.Len()))))
	}
	return hits
}

// kernelPool recycles kernels (and their scratch buffers) across queries so
// facade-level calls stay allocation-free after warm-up.
var kernelPool = sync.Pool{New: func() any { return new(Kernel) }}

// AcquireKernel returns a pooled kernel reset to (h, b, v).  Callers must
// Release it when done and must not retain it afterwards.
func AcquireKernel(h prf.BitSource, b bitvec.Subset, v bitvec.Vector) *Kernel {
	k := kernelPool.Get().(*Kernel)
	k.Reset(h, b, v)
	return k
}

// Drop clears the kernel's references to the query objects while keeping
// its buffers, so embedding structs can pool the kernel themselves.
func (k *Kernel) Drop() {
	k.h, k.es = nil, nil
	k.b, k.v = bitvec.Subset{}, bitvec.Vector{}
}

// Release drops the kernel's query references and returns it to the shared
// pool.  Only kernels obtained from AcquireKernel may be Released.
func (k *Kernel) Release() {
	k.Drop()
	kernelPool.Put(k)
}

// CountMatches is the batch counting form of Evaluate — the inner loop of
// Algorithm 2 for a single goroutine.
func CountMatches(h prf.BitSource, records View, b bitvec.Subset, v bitvec.Vector) int {
	k := AcquireKernel(h, b, v)
	hits := k.CountMatches(records)
	k.Release()
	return hits
}
