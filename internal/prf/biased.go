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
