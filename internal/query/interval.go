package query

import "sketchprivacy/internal/bitvec"

// prefixValue returns the first i bits of c's width-k binary representation
// with the last of those bits forced to zero — the query value
// c₁...c_{i−1}0 the interval decomposition asks about.
func prefixValue(c uint64, width, i int) bitvec.Vector {
	v := bitvec.FromUint(c, width)
	out := bitvec.New(i)
	for j := 0; j < i-1; j++ {
		out.Set(j, v.Get(j))
	}
	// Bit i (1-based) forced to 0; New starts all-zero.
	return out
}

// FieldLessThan estimates the fraction of users whose field value is
// strictly below c, using the paper's Section 4.1 decomposition: one prefix
// query per set bit of c,
//
//	|{u : a_u < c}| = Σ_{i : c_i = 1} I(A_i, c₁...c_{i−1}0).
//
// It requires sketches of the prefix subsets A_i for every i with c_i = 1.
// The whole popcount(c)-term prefix decomposition compiles into one plan,
// so it costs one table pass locally and one fan-out over a cluster.
func (e *Estimator) FieldLessThan(src PartialSource, f bitvec.IntField, c uint64) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanFieldLessThan(p, f, c)
	})
}

// FieldAtMost estimates the fraction of users with field value ≤ c.  It is
// FieldLessThan plus one equality query I(A, c) on the full field subset
// (the paper's formula targets the strict inequality; the equality term
// completes it).
func (e *Estimator) FieldAtMost(src PartialSource, f bitvec.IntField, c uint64) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanFieldAtMost(p, f, c)
	})
}

// EqualAndLessThan estimates the fraction of users satisfying a = c and
// b < d simultaneously ("Combining queries together", Section 4.1).  Each
// term I(A ∪ B_i, c‖d₁...d_{i−1}0) is glued from the sketch of the full
// subset A and the sketch of the prefix subset B_i via the Appendix F
// combination, so no union subset needs to have been sketched.
func (e *Estimator) EqualAndLessThan(src PartialSource, a bitvec.IntField, c uint64, b bitvec.IntField, d uint64) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanEqualAndLessThan(p, a, c, b, d)
	})
}

// ConditionalSumGivenLessThan estimates (1/M)·Σ_u b_u·1[a_u < c] — the
// per-user average contribution of attribute b restricted to users whose
// attribute a is below c.  Section 4.1 writes it as the double sum
// Σ_{j : c_j=1} Σ_i 2^(k−i) I(A_j ∪ B_i, c₁...c_{j−1}0 1); each term is
// glued from the prefix sketch of a and the single-bit sketch of b.
func (e *Estimator) ConditionalSumGivenLessThan(src PartialSource, b bitvec.IntField, a bitvec.IntField, c uint64) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanConditionalSumGivenLessThan(p, b, a, c)
	})
}

// ConditionalMeanGivenLessThan estimates E[b | a < c]: the conditional sum
// divided by the estimated fraction of users with a < c; numerator and
// denominator share one plan execution.
func (e *Estimator) ConditionalMeanGivenLessThan(src PartialSource, b bitvec.IntField, a bitvec.IntField, c uint64) (NumericEstimate, error) {
	return run(src, func(p *Plan) (NumericFinisher, error) {
		return e.PlanConditionalMeanGivenLessThan(p, b, a, c)
	})
}
