package privacy

import (
	"errors"
	"fmt"
	"math"

	"sketchprivacy/internal/sketch"
)

// ErrInvalid is returned for out-of-range privacy parameters.
var ErrInvalid = errors.New("privacy: invalid parameter")

// RatioToEpsilon converts a worst-case likelihood ratio bound (≥ 1) to the
// ε of Definition 1 (ratio = 1 + ε).
func RatioToEpsilon(ratio float64) (float64, error) {
	if math.IsNaN(ratio) || ratio < 1 {
		return 0, fmt.Errorf("%w: likelihood ratio %v must be at least 1", ErrInvalid, ratio)
	}
	return ratio - 1, nil
}

// EpsilonToRatio converts an ε to the ratio bound 1 + ε.
func EpsilonToRatio(eps float64) (float64, error) {
	if math.IsNaN(eps) || eps < 0 {
		return 0, fmt.Errorf("%w: epsilon %v must be non-negative", ErrInvalid, eps)
	}
	return 1 + eps, nil
}

// Compose returns the ε of a user who independently publishes outputs with
// per-output ratio bounds ratios[i]: the ratios multiply, so
// ε = Π ratios − 1.  (This is the composition behind Corollary 3.4.)
func Compose(ratios ...float64) (float64, error) {
	prod := 1.0
	for _, r := range ratios {
		if math.IsNaN(r) || r < 1 {
			return 0, fmt.Errorf("%w: likelihood ratio %v must be at least 1", ErrInvalid, r)
		}
		prod *= r
	}
	return prod - 1, nil
}

// SketchRatio returns the Lemma 3.3 per-sketch likelihood-ratio bound
// ((1−p)/p)⁴ for bias p ∈ (0, 1/2).  The arithmetic is
// sketch.Params.PrivacyRatio's; this adds the validation.
func SketchRatio(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 0.5 {
		return 0, fmt.Errorf("%w: bias %v must lie in (0, 1/2)", ErrInvalid, p)
	}
	return sketch.Params{P: p}.PrivacyRatio(), nil
}

// SketchEpsilon returns the ε for publishing l sketches at bias p
// (Corollary 3.4), computed by sketch.Params.Epsilon.
func SketchEpsilon(p float64, l int) (float64, error) {
	if l < 0 {
		return 0, fmt.Errorf("%w: negative sketch count %d", ErrInvalid, l)
	}
	if _, err := SketchRatio(p); err != nil {
		return 0, err
	}
	return sketch.Params{P: p}.Epsilon(l), nil
}

// BitFlipRatio returns the per-bit likelihood ratio (1−p)/p of Warner's
// randomized response (Appendix B).
func BitFlipRatio(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 0.5 {
		return 0, fmt.Errorf("%w: flip probability %v must lie in (0, 1/2)", ErrInvalid, p)
	}
	return (1 - p) / p, nil
}

// BitFlipEpsilon returns the ε of flipping q bits independently at
// probability p: the worst case pairs two profiles differing in every bit.
func BitFlipEpsilon(p float64, q int) (float64, error) {
	if q < 0 {
		return 0, fmt.Errorf("%w: negative bit count %d", ErrInvalid, q)
	}
	r, err := BitFlipRatio(p)
	if err != nil {
		return 0, err
	}
	return math.Pow(r, float64(q)) - 1, nil
}

// RetentionRatio returns the worst-case likelihood ratio of retention
// replacement for one attribute with the given domain size: observing the
// retained value versus any other value gives
// (rho + (1−rho)/|D|) / ((1−rho)/|D|), which grows with the domain size —
// with a large domain a single observation is nearly conclusive, the
// weakness the introduction's attack exploits.
func RetentionRatio(rho float64, domain int) (float64, error) {
	if math.IsNaN(rho) || rho <= 0 || rho >= 1 {
		return 0, fmt.Errorf("%w: retention probability %v must lie in (0, 1)", ErrInvalid, rho)
	}
	if domain < 2 {
		return 0, fmt.Errorf("%w: domain size %d must be at least 2", ErrInvalid, domain)
	}
	replace := (1 - rho) / float64(domain)
	return (rho + replace) / replace, nil
}
