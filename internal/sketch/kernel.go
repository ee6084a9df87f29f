package sketch

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
)

// Kernel is a single-goroutine evaluator of the public function H,
// specialised to one query pair (B, v).  The tuple components every record
// of an Algorithm 2 query shares — the subset tag and the candidate value —
// are encoded once at Reset; evaluation splices them between each record's
// id part and sketch part, hashes through the PRF handle the kernel binds to
// the deployment's key, and thresholds the uniform outputs against the
// deployment's p itself, performing no allocations and taking no locks.
//
// A Kernel is not safe for concurrent use.  Parallel record loops create
// one per worker goroutine (directly or via AcquireKernel).
type Kernel struct {
	h prf.BitSource
	b bitvec.Subset
	v bitvec.Vector
	// keyed says h is the pseudorandom H (*prf.Biased), evaluated through
	// me and p; any other source — the truly random Oracle of the ablations
	// — is asked through its Bit method, one record at a time.
	keyed bool
	me    prf.MultiEvaluator
	p     prf.Prob
	// mid holds the length-prefixed (B, v) tuple parts shared by every
	// record of the query.
	mid []byte
	// buf holds the assembled messages of one evaluation — one for
	// Evaluate, a window's for Word, sliced out at offs as msgs — and us
	// their uniform outputs.
	buf  []byte
	offs []int
	msgs [][]byte
	us   [IDBlockLen]uint64
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
	biased, ok := h.(*prf.Biased)
	k.keyed = ok
	if !ok {
		return
	}
	k.me.Rebind(biased.Func())
	k.p = biased.Prob()
	mid := prf.AppendPartHeader(k.mid[:0], b.TagLen())
	mid = b.AppendTag(mid)
	mid = prf.AppendPartHeader(mid, v.EncodedLen())
	k.mid = v.AppendBytes(mid)
}

// AppendRecordPrefix appends the tuple header and user-id part of H's
// message — what every (B, v) evaluation of one record starts with.
func AppendRecordPrefix(dst []byte, id bitvec.UserID) []byte {
	dst = prf.AppendTupleHeader(dst, 4)
	dst = prf.AppendPartHeader(dst, 8)
	return binary.BigEndian.AppendUint64(dst, uint64(id))
}

// AppendRecordSuffix appends the sketch-key part of H's message — what
// every (B, v) evaluation of one record ends with.
func AppendRecordSuffix(dst []byte, s Sketch) []byte {
	dst = prf.AppendPartHeader(dst, s.EncodedLen())
	return s.AppendBytes(dst)
}

// Evaluate computes H(id, B, v, s) for one record: Algorithm 1's step for
// a candidate key, over the scalar PRF engine whatever the lane policy.
func (k *Kernel) Evaluate(id bitvec.UserID, s Sketch) bool {
	if !k.keyed {
		return k.h.Bit(id.Bytes(), k.b.Tag(), k.v.Bytes(), s.Bytes())
	}
	k.buf = k.appendMessage(k.buf[:0], id, s)
	return k.p.Decide(k.me.Uint64Msg(k.buf))
}

// appendMessage appends H's message for record (id, s) at the kernel's
// (B, v): the tuple (id, B, v, s) in prf's encoding.
func (k *Kernel) appendMessage(dst []byte, id bitvec.UserID, s Sketch) []byte {
	dst = AppendRecordPrefix(dst, id)
	dst = append(dst, k.mid...)
	return AppendRecordSuffix(dst, s)
}

// Window is up to 64 records of a View staged for evaluation: their ids
// decoded from the view's id column and their sketches unpacked from its
// word column, once, for every (B, v) asked of the same records — one
// Kernel each.  It holds copies, not the view, of the staged records only,
// in view order: record j of ids and sketches is the j-th record the keep
// word kept.  The zero Window is ready to Stage; one belongs to one
// goroutine.
type Window struct {
	n        int
	ids      [IDBlockLen]bitvec.UserID
	sketches [IDBlockLen]Sketch
}

// Stage stages the records of window w of the view — records [64w, 64w+64),
// fewer at the end — that keep selects, bit i standing for record 64w+i;
// ^uint64(0) stages them all.  Only a staged record is evaluated, so a
// filtered scan pays for the records its filter keeps.
func (win *Window) Stage(records View, w int, keep uint64) {
	if n := len(records.ids.Block(w, &win.ids)); n < IDBlockLen {
		keep &= 1<<uint(n) - 1
	}
	keys, base, n := records.keys, w*IDBlockLen, 0
	for ; keep != 0; keep &= keep - 1 {
		i := bits.TrailingZeros64(keep)
		win.ids[n] = win.ids[i]
		win.sketches[n] = keys.Sketch(base + i)
		n++
	}
	win.n = n
}

// Word evaluates the staged records against the kernel's (B, v) and returns
// the outcomes in staging order: bit j is H on the j-th staged record, and
// the bits above the last staged record are 0.  Without a keep word that is
// the window's records at their window positions; under one it is the kept
// records packed low, the bits an evaluation bitmap over the kept records
// appends.  It is the one step of Algorithm 2's record loop: the messages
// are assembled contiguously and hashed as a batch, 8 lanes wide or scalar
// by the lane policy, bit-identical to an Evaluate call per record.
func (k *Kernel) Word(win *Window) uint64 {
	var word uint64
	if !k.keyed {
		for i, id := range win.ids[:win.n] {
			if k.Evaluate(id, win.sketches[i]) {
				word |= 1 << uint(i)
			}
		}
		return word
	}
	buf, offs := k.buf[:0], k.offs[:0]
	for i, id := range win.ids[:win.n] {
		offs = append(offs, len(buf))
		buf = k.appendMessage(buf, id, win.sketches[i])
	}
	offs = append(offs, len(buf))
	// Sliced out only now that the buffer has stopped growing, so no
	// message aliases a backing array an append left behind.
	msgs := k.msgs[:0]
	for i := 0; i < win.n; i++ {
		msgs = append(msgs, buf[offs[i]:offs[i+1]])
	}
	k.buf, k.offs, k.msgs = buf, offs, msgs
	us := k.us[:win.n]
	k.me.Uint64Batch(msgs, us)
	for i, u := range us {
		if k.p.Decide(u) {
			word |= 1 << uint(i)
		}
	}
	return word
}

// kernelPool recycles kernels (and their buffers) across queries so
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
	k.h, k.keyed = nil, false
	k.b, k.v = bitvec.Subset{}, bitvec.Vector{}
}

// Release drops the kernel's query references and returns it to the shared
// pool.  Only kernels obtained from AcquireKernel may be Released.
func (k *Kernel) Release() {
	k.Drop()
	kernelPool.Put(k)
}

// CountMatches returns how many records evaluate to 1 at (b, v) — the inner
// sum of Algorithm 2 on a single goroutine, by the two calls a plan's scan
// workers make per 64 records: Stage, then Word.
func CountMatches(h prf.BitSource, records View, b bitvec.Subset, v bitvec.Vector) int {
	k := AcquireKernel(h, b, v)
	var win Window
	hits := 0
	for w, words := 0, records.ids.Blocks(); w < words; w++ {
		win.Stage(records, w, ^uint64(0))
		hits += bits.OnesCount64(k.Word(&win))
	}
	k.Release()
	return hits
}
