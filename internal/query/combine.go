package query

import (
	"fmt"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/linalg"
	"sketchprivacy/internal/sketch"
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
func (e *Estimator) MatchDistribution(tab *sketch.Table, subs []SubQuery) ([]float64, int, error) {
	return e.MatchDistributionFrom(e.TableSource(tab), subs)
}

// MatchDistributionFrom is MatchDistribution over any partial source.  The
// raw histogram comes from a one-entry plan — locally the per-user
// evaluation loop is sharded across workers (see matchHistogram); over a
// cluster it is the exact bin-wise sum of the per-node histograms.
func (e *Estimator) MatchDistributionFrom(src PartialSource, subs []SubQuery) ([]float64, int, error) {
	p := NewPlan()
	fin, err := e.planMatchDistribution(p, subs)
	if err != nil {
		return nil, 0, err
	}
	res, err := src.Execute(p)
	if err != nil {
		return nil, 0, err
	}
	return fin(res)
}

// UnionConjunction estimates the fraction of users satisfying every
// sub-query simultaneously — a conjunctive query over the union
// B₁ ∪ ... ∪ B_q of the sketched subsets (Appendix F).
func (e *Estimator) UnionConjunction(tab *sketch.Table, subs []SubQuery) (Estimate, error) {
	return e.UnionConjunctionFrom(e.TableSource(tab), subs)
}

// UnionConjunctionFrom is UnionConjunction over any partial source.
func (e *Estimator) UnionConjunctionFrom(src PartialSource, subs []SubQuery) (Estimate, error) {
	return runEstimate(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanUnionConjunction(p, subs)
	})
}

// NoneOf estimates the fraction of users satisfying none of the sub-queries,
// which Appendix F notes can be used to answer disjunctions of conjunctions
// (1 − NoneOf is the fraction satisfying at least one).
func (e *Estimator) NoneOf(tab *sketch.Table, subs []SubQuery) (Estimate, error) {
	return e.NoneOfFrom(e.TableSource(tab), subs)
}

// NoneOfFrom is NoneOf over any partial source.
func (e *Estimator) NoneOfFrom(src PartialSource, subs []SubQuery) (Estimate, error) {
	return runEstimate(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanNoneOf(p, subs)
	})
}

// ExactlyOfK estimates the fraction of users satisfying exactly l of the k
// sub-queries ("one can estimate the fraction of users that satisfy exactly
// l out of k bits in the query", Section 4.1).
func (e *Estimator) ExactlyOfK(tab *sketch.Table, subs []SubQuery, l int) (Estimate, error) {
	return e.ExactlyOfKFrom(e.TableSource(tab), subs, l)
}

// ExactlyOfKFrom is ExactlyOfK over any partial source.
func (e *Estimator) ExactlyOfKFrom(src PartialSource, subs []SubQuery, l int) (Estimate, error) {
	return runEstimate(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanExactlyOfK(p, subs, l)
	})
}

// AtLeastOfK estimates the fraction of users satisfying at least l of the k
// sub-queries, by summing the tail of the match distribution.
func (e *Estimator) AtLeastOfK(tab *sketch.Table, subs []SubQuery, l int) (Estimate, error) {
	return e.AtLeastOfKFrom(e.TableSource(tab), subs, l)
}

// AtLeastOfKFrom is AtLeastOfK over any partial source.
func (e *Estimator) AtLeastOfKFrom(src PartialSource, subs []SubQuery, l int) (Estimate, error) {
	return runEstimate(src, func(p *Plan) (EstimateFinisher, error) {
		return e.PlanAtLeastOfK(p, subs, l)
	})
}

// virtualBit is one heterogeneously perturbed bit: the observed (public)
// value and the probability with which it differs from the true private
// bit.
type virtualBit struct {
	observed bool
	flipProb float64
}

// productWeight returns the inverse-perturbation weight for one bit: the
// entry of the 2×2 inverse channel matrix selected by (target, observed).
// Averaging the product of these weights over users gives an unbiased
// estimate of the fraction whose true bits equal the target pattern — the
// natural generalization of the Appendix F inversion to bits with
// different flip probabilities (which Appendix E's XOR bits require:
// original bits flip with probability p, XOR bits with 2p(1−p)).
func productWeight(target bool, bit virtualBit) (float64, error) {
	denom := 1 - 2*bit.flipProb
	if denom <= 0 {
		return 0, fmt.Errorf("%w: flip probability %v is not below 1/2", ErrBadBias, bit.flipProb)
	}
	if bit.observed == target {
		return (1 - bit.flipProb) / denom, nil
	}
	return -bit.flipProb / denom, nil
}

// productFraction averages the per-user product weights.  rows[u] holds
// user u's observed virtual bits; targets is the true pattern being counted.
func productFraction(rows [][]virtualBit, targets []bool) (float64, error) {
	if len(rows) == 0 {
		return 0, ErrNoSketches
	}
	var sum float64
	for _, row := range rows {
		if len(row) != len(targets) {
			return 0, fmt.Errorf("%w: user row has %d bits, target has %d", ErrMismatch, len(row), len(targets))
		}
		w := 1.0
		for i, bit := range row {
			wi, err := productWeight(targets[i], bit)
			if err != nil {
				return 0, err
			}
			w *= wi
		}
		sum += w
	}
	return sum / float64(len(rows)), nil
}
