package stats

import (
	"fmt"
	"math"
)

// This file carries the tail bounds the paper's analysis is written in.
//
// Lemma 4.1 states that the conjunctive-query estimator errs by more than ε
// with probability at most exp(−ε²(1−2p)²M/4); equivalently, with
// probability 1−δ the error is O(sqrt(log(1/δ)/M)).  These helpers turn the
// bound around in every direction the experiment harness needs: failure
// probability for a given (ε, p, M), error radius for a given (δ, p, M),
// and sample size for a given (ε, δ, p).

// HoeffdingTail returns the Hoeffding bound exp(-2 n t²) on the probability
// that the mean of n independent [0,1]-valued variables deviates from its
// expectation by more than t.
func HoeffdingTail(n int, t float64) float64 {
	if n <= 0 || t <= 0 {
		return 1
	}
	return math.Exp(-2 * float64(n) * t * t)
}

// ChernoffFailureProb is the paper's Lemma 4.1 failure bound: the
// probability that the sketch-based conjunctive query errs by more than eps
// when M users contribute and the bias parameter is p.
func ChernoffFailureProb(eps, p float64, m int) float64 {
	if eps <= 0 || m <= 0 {
		return 1
	}
	return math.Exp(-eps * eps * (1 - 2*p) * (1 - 2*p) * float64(m) / 4)
}

// ErrorRadius inverts ChernoffFailureProb: the additive error ε that holds
// with probability at least 1−δ for M users at bias p.  This is the paper's
// O(sqrt(log(1/δ)/M)) guarantee with its constants made explicit.
func ErrorRadius(delta, p float64, m int) float64 {
	if delta <= 0 || delta >= 1 || m <= 0 {
		return math.Inf(1)
	}
	if p >= 0.5 {
		return math.Inf(1)
	}
	return math.Sqrt(4*math.Log(1/delta)/float64(m)) / (1 - 2*p)
}

// RequiredUsers inverts ChernoffFailureProb in M: the number of users
// needed so that the error exceeds eps with probability at most delta.
func RequiredUsers(eps, delta, p float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 || p >= 0.5 {
		return math.MaxInt32
	}
	m := 4 * math.Log(1/delta) / (eps * eps * (1 - 2*p) * (1 - 2*p))
	return int(math.Ceil(m))
}

// Interval is a closed interval [Lo, Hi], used to report estimates with
// their confidence radii.
type Interval struct {
	Lo, Hi float64
}

// NewInterval returns the interval centered at mid with the given radius.
func NewInterval(mid, radius float64) Interval {
	return Interval{Lo: mid - radius, Hi: mid + radius}
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns the interval width.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Mid returns the interval midpoint.
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }

// Clamp returns the interval intersected with [lo, hi]; useful because
// frequency estimates live in [0,1].
func (iv Interval) Clamp(lo, hi float64) Interval {
	out := iv
	if out.Lo < lo {
		out.Lo = lo
	}
	if out.Hi > hi {
		out.Hi = hi
	}
	if out.Lo > out.Hi {
		out.Lo, out.Hi = out.Hi, out.Lo
	}
	return out
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%.6g, %.6g]", iv.Lo, iv.Hi) }

// Clamp01 clips x to [0,1]; frequency estimators use it to keep reported
// fractions in range.
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
