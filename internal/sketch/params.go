package sketch

import (
	"errors"
	"fmt"
	"math"
)

// MaxLength is the largest supported sketch length in bits.  Lemma 3.1
// makes lengths beyond ~20 bits pointless for any realistic population
// (the bound is doubly logarithmic in M/τ); the cap keeps the
// without-replacement sampler's bookkeeping bounded.
const MaxLength = 30

// Params holds the two mechanism parameters: the bias p of the public
// function H and the sketch length ℓ in bits.
//
// p controls the privacy/utility trade-off.  It must lie strictly in
// (0, 1/2): at p = 1/2 a sketch is perfectly private but carries no signal,
// and the paper's estimators divide by (1 − 2p).  Smaller p gives better
// utility (error ∝ 1/(1−2p)) but a weaker privacy bound (the per-sketch
// likelihood-ratio bound is ((1−p)/p)⁴).
type Params struct {
	// P is the bias of the public p-biased function H.
	P float64
	// Length is the sketch length ℓ in bits; the key space has 2^Length
	// values.
	Length int
}

// Common parameter errors.
var (
	// ErrBadBias is returned when p lies outside (0, 1/2).
	ErrBadBias = errors.New("sketch: bias p must lie strictly in (0, 1/2)")
	// ErrBadLength is returned when the sketch length is not in [1, MaxLength].
	ErrBadLength = errors.New("sketch: length must lie in [1, 30] bits")
	// ErrExhausted is returned by Algorithm 1 when every key has been
	// considered and rejected (the failure event of Lemma 3.1).
	ErrExhausted = errors.New("sketch: key space exhausted without publishing (increase sketch length)")
)

// NewParams validates and returns a parameter set.
func NewParams(p float64, length int) (Params, error) {
	if math.IsNaN(p) || p <= 0 || p >= 0.5 {
		return Params{}, fmt.Errorf("%w: got %v", ErrBadBias, p)
	}
	if length < 1 || length > MaxLength {
		return Params{}, fmt.Errorf("%w: got %d", ErrBadLength, length)
	}
	return Params{P: p, Length: length}, nil
}

// MustParams is NewParams that panics on invalid input.
func MustParams(p float64, length int) Params {
	pr, err := NewParams(p, length)
	if err != nil {
		panic(err)
	}
	return pr
}

// ParamsFor returns parameters whose sketch length satisfies Lemma 3.1 for
// a population of at most m users and per-population failure probability at
// most tau.
func ParamsFor(p float64, m int, tau float64) (Params, error) {
	l, err := MinLength(p, m, tau)
	if err != nil {
		return Params{}, err
	}
	return NewParams(p, l)
}

// KeySpace returns the number of distinct keys, 2^Length.
func (pr Params) KeySpace() int { return 1 << uint(pr.Length) }

// AcceptProb returns p²/(1−p)², the probability with which Algorithm 1
// publishes a key whose evaluation is 0 (step 5 of the algorithm).  This is
// the constant that makes the published function exactly (1−p)-biased at
// the true value (Lemma 3.2).
func (pr Params) AcceptProb() float64 {
	r := pr.P / (1 - pr.P)
	return r * r
}

// TerminationProb returns the per-iteration termination probability
// p + p²/(1−p) = p/(1−p) of Algorithm 1.
func (pr Params) TerminationProb() float64 {
	return pr.P / (1 - pr.P)
}

// ExpectedIterations bounds the expected number of iterations of
// Algorithm 1.  Sampling without replacement only terminates faster than
// the geometric bound (1−p)/p, so this is an upper bound on the true
// expectation; the paper's remark states the weaker bound (1−p)²/p².
func (pr Params) ExpectedIterations() float64 {
	return (1 - pr.P) / pr.P
}

// WorstCaseIterations returns the maximum possible number of iterations,
// i.e. the key-space size (every key is tried at most once).
func (pr Params) WorstCaseIterations() int { return pr.KeySpace() }

// FailureProb returns the Lemma 3.1 per-user failure bound (1−p²)^(2^ℓ):
// the probability that Algorithm 1 rejects every key in the key space.
//
// (Per iteration the algorithm publishes with probability at least p²:
// H evaluates to 1 with probability p... the bound used in the lemma's
// proof is the product over all keys of the per-key rejection probability
// 1−p², where p² lower-bounds the probability that a key is both
// considered and accepted.)
func (pr Params) FailureProb() float64 {
	return math.Pow(1-pr.P*pr.P, float64(pr.KeySpace()))
}

// PrivacyRatio returns the Lemma 3.3 per-sketch likelihood-ratio bound
// ((1−p)/p)⁴: no attacker, however knowledgeable or computationally
// unbounded, can use a published sketch to change the odds between any two
// candidate profiles by more than this factor.
func (pr Params) PrivacyRatio() float64 {
	return math.Pow((1-pr.P)/pr.P, 4)
}

// Epsilon returns the ε of Definition 1 for a user who publishes l sketches
// under these parameters: (ratio)^l − 1, per Corollary 3.4.
func (pr Params) Epsilon(l int) float64 {
	return math.Pow(pr.PrivacyRatio(), float64(l)) - 1
}

// MinLength returns the smallest sketch length ℓ such that, with at most m
// users each sketching once, the probability that any sketch fails is at
// most tau (Lemma 3.1):
//
//	ℓ = ⌈ log₂( ln(m/τ) / |ln(1−p²)| ) ⌉
//
// so that (1−p²)^(2^ℓ) ≤ τ/m and a union bound over users gives τ.
func MinLength(p float64, m int, tau float64) (int, error) {
	if math.IsNaN(p) || p <= 0 || p >= 0.5 {
		return 0, fmt.Errorf("%w: got %v", ErrBadBias, p)
	}
	if m < 1 {
		return 0, fmt.Errorf("sketch: population size %d must be positive", m)
	}
	if math.IsNaN(tau) || tau <= 0 || tau >= 1 {
		return 0, fmt.Errorf("sketch: failure probability %v must lie in (0,1)", tau)
	}
	iterations := math.Log(float64(m)/tau) / -math.Log(1-p*p)
	l := int(math.Ceil(math.Log2(iterations)))
	if l < 1 {
		l = 1
	}
	if l > MaxLength {
		return 0, fmt.Errorf("%w: Lemma 3.1 requires %d bits for p=%v, m=%d, tau=%v", ErrBadLength, l, p, m, tau)
	}
	return l, nil
}

// BiasForBudget returns the bias p = 1/2 − ε/(16·l) that Corollary 3.4
// prescribes so that publishing l sketches keeps the overall likelihood
// ratio within 1 ± ε (to first order).  It returns an error when the
// resulting p would leave (0, 1/2).
func BiasForBudget(eps float64, l int) (float64, error) {
	if math.IsNaN(eps) || eps <= 0 || l < 1 {
		return 0, fmt.Errorf("sketch: invalid privacy budget eps=%v l=%d", eps, l)
	}
	p := 0.5 - eps/(16*float64(l))
	if p <= 0 {
		return 0, fmt.Errorf("%w: budget eps=%v over %d sketches requires p=%v", ErrBadBias, eps, l, p)
	}
	return p, nil
}

// SketchBits returns the number of bits a published sketch occupies; it is
// simply Length, restated so callers reporting wire sizes (Experiment E16)
// have a single source of truth.
func (pr Params) SketchBits() int { return pr.Length }

// String implements fmt.Stringer.
func (pr Params) String() string {
	return fmt.Sprintf("p=%.4g ℓ=%d bits (privacy ratio %.4g, failure prob %.3g)",
		pr.P, pr.Length, pr.PrivacyRatio(), pr.FailureProb())
}
