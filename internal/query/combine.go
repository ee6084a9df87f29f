package query

import (
	"fmt"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/linalg"
)

// SubQuery is one component of a combined query: a sketched subset together
// with the value its projection must equal.
type SubQuery struct {
	Subset bitvec.Subset
	Value  bitvec.Vector
}

// validate checks shape consistency of a combined query.
func validateSubQueries(subs []SubQuery) error {
	if len(subs) == 0 {
		return fmt.Errorf("%w: combined query needs at least one sub-query", ErrMismatch)
	}
	for i, s := range subs {
		if s.Subset.Len() == 0 || s.Subset.Len() != s.Value.Len() {
			return fmt.Errorf("%w: sub-query %d has subset size %d and value length %d", ErrMismatch, i, s.Subset.Len(), s.Value.Len())
		}
	}
	return nil
}

// PerturbationMatrix builds the (k+1)×(k+1) matrix V of Appendix F for k
// independently p-perturbed bits: entry (l', l) is the probability that a
// user whose true bits contain exactly l ones shows exactly l' ones after
// each bit is flipped independently with probability p.
//
// Equation (6) of the paper gives the same quantity in factored form; here
// it is computed as the convolution of the "ones kept" and "zeros flipped"
// binomials, which is numerically friendlier and easy to cross-check.
func PerturbationMatrix(k int, p float64) *linalg.Matrix {
	v := linalg.NewMatrix(k+1, k+1)
	for l := 0; l <= k; l++ {
		for lp := 0; lp <= k; lp++ {
			var prob float64
			// h = number of original ones flipped to zero; then we need
			// l' − (l − h) of the k−l zeros flipped to one.
			for h := 0; h <= l; h++ {
				up := lp - (l - h)
				if up < 0 || up > k-l {
					continue
				}
				prob += linalg.BinomialPMF(l, h, p) * linalg.BinomialPMF(k-l, up, p)
			}
			v.Set(lp, l, prob)
		}
	}
	return v
}

// Conditioning returns the 1-norm condition number of the Appendix F
// perturbation matrix for k bits at bias p.  The paper remarks (without
// numbers) that it grows exponentially in k with base proportional to
// 1/(p − 1/2); experiment E8 regenerates that observation from this
// function.
func Conditioning(k int, p float64) float64 {
	return linalg.Cond1(PerturbationMatrix(k, p))
}

// MatchDistribution estimates the distribution over the number of
// sub-queries a user truly satisfies: x[l] is the estimated fraction of
// users whose profile satisfies exactly l of the k sub-queries.  It solves
// the Appendix F system x = V⁻¹·y.  Entries of x may fall slightly outside
// [0, 1] by sampling noise; callers that need probabilities should clamp.
//
// The raw histogram comes from a one-entry plan — locally a join over the
// sub-queries' evaluation bitmaps (see cut.histogram); over a cluster it is
// the exact bin-wise sum of the per-node histograms.  It has no exported
// planner: the Appendix F estimators below register the histogram
// themselves and reduce a slice of this distribution.
func (e *Estimator) MatchDistribution(src PartialSource, subs []SubQuery) ([]float64, int, error) {
	p := NewPlan()
	ref, err := p.AddHistogram(subs)
	if err != nil {
		return nil, 0, err
	}
	res, err := src.Execute(p)
	if err != nil {
		return nil, 0, err
	}
	return e.matchDistributionFinisher(ref, subs)(res)
}

// UnionConjunction estimates the fraction of users satisfying every
// sub-query simultaneously — a conjunctive query over the union
// B₁ ∪ ... ∪ B_q of the sketched subsets (Appendix F).
func (e *Estimator) UnionConjunction(src PartialSource, subs []SubQuery) (Estimate, error) {
	return run(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanUnionConjunction(p, subs)
	})
}

// NoneOf estimates the fraction of users satisfying none of the sub-queries,
// which Appendix F notes can be used to answer disjunctions of conjunctions
// (1 − NoneOf is the fraction satisfying at least one).
func (e *Estimator) NoneOf(src PartialSource, subs []SubQuery) (Estimate, error) {
	return run(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanNoneOf(p, subs)
	})
}

// ExactlyOfK estimates the fraction of users satisfying exactly l of the k
// sub-queries ("one can estimate the fraction of users that satisfy exactly
// l out of k bits in the query", Section 4.1).
func (e *Estimator) ExactlyOfK(src PartialSource, subs []SubQuery, l int) (Estimate, error) {
	return run(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanExactlyOfK(p, subs, l)
	})
}

// AtLeastOfK estimates the fraction of users satisfying at least l of the k
// sub-queries, by summing the tail of the match distribution.
func (e *Estimator) AtLeastOfK(src PartialSource, subs []SubQuery, l int) (Estimate, error) {
	return run(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanAtLeastOfK(p, subs, l)
	})
}

// virtualColumn is one heterogeneously perturbed bit across the aligned
// users of an estimate: the observed (public) values as a packed column —
// bit u&63 of word u>>6 is user u's — the true value being counted, and
// the probability with which an observed value differs from the private
// one.
type virtualColumn struct {
	observed []uint64
	target   bool
	flipProb float64
}

// productWeight returns the inverse-perturbation weight for one bit: the
// entry of the 2×2 inverse channel matrix selected by whether the observed
// value equals the target.  Averaging the product of these weights over
// users gives an unbiased estimate of the fraction whose true bits equal
// the target pattern — the natural generalization of the Appendix F
// inversion to bits with different flip probabilities (which Appendix E's
// XOR bits require: original bits flip with probability p, XOR bits with
// 2p(1−p)).
func productWeight(matches bool, flipProb float64) (float64, error) {
	denom := 1 - 2*flipProb
	if denom <= 0 {
		return 0, fmt.Errorf("%w: flip probability %v is not below 1/2", ErrBadBias, flipProb)
	}
	if matches {
		return (1 - flipProb) / denom, nil
	}
	return -flipProb / denom, nil
}

// productFraction averages, over users 0..users-1, the product of the
// columns' weights in column order.
func productFraction(cols []virtualColumn, users int) (float64, error) {
	if users == 0 {
		return 0, ErrNoSketches
	}
	weights := make([][2]float64, len(cols)) // a column's weight by observed bit
	for i, c := range cols {
		if len(c.observed) != (users+63)/64 {
			return 0, fmt.Errorf("%w: column holds %d words for %d users", ErrMismatch, len(c.observed), users)
		}
		for bit := range weights[i] {
			w, err := productWeight((bit == 1) == c.target, c.flipProb)
			if err != nil {
				return 0, err
			}
			weights[i][bit] = w
		}
	}
	var sum float64
	for u := 0; u < users; u++ {
		w := 1.0
		for i, c := range cols {
			w *= weights[i][c.observed[u>>6]>>(u&63)&1]
		}
		sum += w
	}
	return sum / float64(users), nil
}
