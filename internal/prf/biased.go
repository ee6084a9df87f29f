package prf

import (
	"errors"
	"fmt"
	"math"
)

// Prob is a probability represented in 64-bit fixed point, exactly the
// mechanism the paper uses to turn a uniform hash output into a p-biased
// coin: write p as a binary fraction p = sum p_i 2^-i, read the hash output
// v_1 v_2 ... as a binary fraction, and report 1 when the hash fraction is
// below the threshold.  With 64 bits of precision the rounding error is at
// most 2^-64, far below every statistical effect in the paper.
type Prob struct {
	// threshold is floor(p * 2^64); a uniform 64-bit value u yields a
	// biased bit via u < threshold.
	threshold uint64
	// value is the float64 the Prob was constructed from, kept for
	// reporting and for closed-form formulas.
	value float64
}

// ErrProbRange is returned when a probability lies outside [0,1].
var ErrProbRange = errors.New("prf: probability outside [0,1]")

// NewProb converts p in [0,1] to its fixed-point representation.
func NewProb(p float64) (Prob, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Prob{}, fmt.Errorf("%w: %v", ErrProbRange, p)
	}
	if p >= 1 {
		return Prob{threshold: math.MaxUint64, value: 1}, nil
	}
	// Ldexp scales by a power of two, which is exact for any finite float,
	// so t = p·2^64 here and t < 2^64 whenever p < 1: the uint64 conversion
	// below cannot overflow (a uint64 conversion of a value ≥ 2^64 would be
	// implementation-defined in Go).  Probabilities within 2^-54 of 1 don't
	// reach this line at all — they already round to exactly 1.0 when
	// parsed and take the p >= 1 branch above.  The clamp is a defensive
	// guard on that reasoning, not a reachable path.
	t := math.Ldexp(p, 64)
	if t >= math.Ldexp(1, 64) {
		return Prob{threshold: math.MaxUint64, value: p}, nil
	}
	return Prob{threshold: uint64(t), value: p}, nil
}

// MustProb is NewProb that panics on invalid input; intended for constants
// and tests.
func MustProb(p float64) Prob {
	pr, err := NewProb(p)
	if err != nil {
		panic(err)
	}
	return pr
}

// Float returns the probability as a float64.
func (p Prob) Float() float64 { return p.value }

// Threshold returns the 64-bit fixed point threshold.
func (p Prob) Threshold() uint64 { return p.threshold }

// Decide converts a uniform 64-bit value into a p-biased bit.
func (p Prob) Decide(u uint64) bool { return u < p.threshold }

// String implements fmt.Stringer.
func (p Prob) String() string { return fmt.Sprintf("%.6g", p.value) }

// BitSource is the abstraction of the public p-biased function H consumed by
// the sketching algorithm and the query estimators.  For a uniformly chosen
// fresh input tuple, Bit returns true with probability Bias(); repeated
// calls with the same tuple return the same answer (the function is
// deterministic once keyed).
//
// Two implementations exist: *Biased (SHA-256-HMAC-backed pseudorandom
// function, the production path) and *Oracle (a truly random lazily
// sampled table, the proof device used by the paper and by our ablation
// benchmarks).
type BitSource interface {
	// Bit evaluates the p-biased function on the input tuple.
	Bit(parts ...[]byte) bool
	// Bias returns p, the probability that Bit is true on a fresh tuple.
	Bias() float64
}

// Biased is the pseudorandom instantiation of the paper's function H: a
// keyed PRF whose 64-bit output is compared against the fixed-point
// encoding of p.  Safe for concurrent use.
type Biased struct {
	f *Func
	p Prob
}

// NewBiased builds the p-biased pseudorandom function from a generator key.
func NewBiased(key []byte, p Prob) *Biased {
	return &Biased{f: NewFunc(key), p: p}
}

// Bit implements BitSource.
func (b *Biased) Bit(parts ...[]byte) bool {
	return b.p.Decide(b.f.Uint64(parts...))
}

// Bias implements BitSource.
func (b *Biased) Bias() float64 { return b.p.Float() }

// Prob returns the underlying fixed-point probability.
func (b *Biased) Prob() Prob { return b.p }

// Func returns the underlying keyed PRF, for callers that also need uniform
// output (for example the dataset generators share one generator key).
func (b *Biased) Func() *Func { return b.f }

// BitEvaluator is the per-goroutine counterpart of Biased: a lock-free,
// allocation-free handle that evaluates the p-biased function using its own
// hasher and scratch state.  Output is bit-identical to Biased.Bit.  Not
// safe for concurrent use; create (or bind) one per goroutine.
type BitEvaluator struct {
	ev Evaluator
	p  Prob
	// Lazily created batch path for BitMsgs64 (multi-lane SHA-256); nil
	// until the first batched call so scalar users pay nothing.
	me *MultiEvaluator
	us []uint64
}

// NewBitEvaluator returns a fresh evaluation handle for this biased source.
func (b *Biased) NewBitEvaluator() *BitEvaluator {
	be := &BitEvaluator{}
	b.BindEvaluator(be)
	return be
}

// BindEvaluator points be at this source's key schedule and bias, reusing
// be's internal buffers.  It lets pools and batch kernels recycle evaluator
// state across queries and keys without reallocating.
func (b *Biased) BindEvaluator(be *BitEvaluator) {
	be.ev.Rebind(b.f)
	be.p = b.p
}

// Bit evaluates the p-biased function on the input tuple.
func (be *BitEvaluator) Bit(parts ...[]byte) bool {
	return be.p.Decide(be.ev.Uint64(parts...))
}

// BitMsg evaluates the p-biased function on a message the caller has
// already tuple-encoded (see AppendTupleHeader/AppendPart).  This is the
// zero-allocation fast path batch kernels use.
func (be *BitEvaluator) BitMsg(msg []byte) bool {
	return be.p.Decide(be.ev.Uint64Msg(msg))
}

// BitMsgs64 evaluates the p-biased function on up to 64 tuple-encoded
// messages at once, returning the outcomes as a packed bit word: bit i is
// set iff the function is 1 on msgs[i].  The messages are hashed through
// the multi-lane batch evaluator (see MultiEvaluator), so on architectures
// with an accelerated engine this is several times faster than 64 BitMsg
// calls while remaining bit-identical to them.  Allocation-free after the
// first call.
func (be *BitEvaluator) BitMsgs64(msgs [][]byte) uint64 {
	if len(msgs) > 64 {
		panic("prf: BitMsgs64 takes at most 64 messages")
	}
	if be.me == nil {
		be.me = &MultiEvaluator{}
	}
	be.me.mac = be.ev.mac
	if cap(be.us) < len(msgs) {
		be.us = make([]uint64, 64)
	}
	us := be.us[:len(msgs)]
	be.me.Uint64Batch(msgs, us)
	var w uint64
	for i, u := range us {
		if be.p.Decide(u) {
			w |= 1 << uint(i)
		}
	}
	return w
}

// Bias returns p, the probability that Bit is true on a fresh tuple.
func (be *BitEvaluator) Bias() float64 { return be.p.Float() }

// EvaluatorSource is the optional fast-path interface implemented by bit
// sources that can hand out cheap per-goroutine evaluation handles.  Batch
// kernels type-assert for it and fall back to the plain BitSource interface
// (e.g. for the truly random Oracle) when it is absent.
type EvaluatorSource interface {
	BitSource
	// BindEvaluator retargets an existing handle at this source, reusing
	// its buffers.
	BindEvaluator(be *BitEvaluator)
}
