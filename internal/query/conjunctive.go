package query

import "sketchprivacy/internal/bitvec"

// Fraction runs Algorithm 2: it estimates the fraction of users whose
// projection onto the sketched subset b equals v, using the sketches
// published for exactly that subset.
//
// The estimate's additive error exceeds ε with probability at most
// exp(−ε²(1−2p)²M/4) (Lemma 4.1), independent of |b| — the paper's
// headline utility property.
//
// It reduces the source's raw counters into the debiased estimate.  Over a
// TableSource the M-record evaluation loop runs on the zero-allocation
// batch kernel, sharded across GOMAXPROCS worker goroutines for large
// tables; the derived estimators (numeric, interval, tree, combine) inherit
// the parallel path through their fraction and match-distribution entries.
// Over a cluster router the merged counters are the same integers a single
// node holding the union of the records would compute, so the estimate is
// bit-identical.  Estimate.Count scales it to a user count.
func (e *Estimator) Fraction(src PartialSource, b bitvec.Subset, v bitvec.Vector) (Estimate, error) {
	return run(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanFraction(p, b, v)
	})
}

// ConjunctionFraction estimates the fraction of users satisfying an
// arbitrary conjunction of negated and unnegated literals.  It first looks
// for sketches of the conjunction's exact subset (the cheap, low-variance
// path Algorithm 2 covers); if none exist it falls back to gluing
// single-bit sketches of each literal's attribute through the Appendix F
// combination, which only requires per-attribute sketches but pays the
// combination's conditioning penalty.
//
// Both the exact-subset evaluation and the Appendix F gluing fallback ride
// one plan execution; the finisher prefers the exact path and falls back
// only on ErrNoSketches, so no separate probe for the subset (which over a
// cluster source would cost a second full fan-out) is ever needed.
func (e *Estimator) ConjunctionFraction(src PartialSource, c bitvec.Conjunction) (Estimate, error) {
	return run(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanConjunctionFraction(p, c)
	})
}
