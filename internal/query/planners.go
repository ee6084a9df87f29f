package query

import (
	"errors"
	"fmt"
	"math"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/linalg"
	"sketchprivacy/internal/stats"
)

// This file holds the plan-builder form of every estimator.  Each planner
// registers the raw-counter evaluations its estimator needs on a Plan and
// returns a finisher that reduces the executed Results into the estimate.
// The arithmetic inside the finishers is the estimator logic itself: an
// estimator's entry point X(src, …) is run over PlanX — one plan build, one
// batched Execute and one finish — and the execution strategy (one-pass
// table scan, one-fan-out cluster push-down) is the only variable.  A
// planner stays exported beside its entry point because it is how several
// estimators ride one execution.  Finishers run in the order their
// evaluations were registered, which fixes error precedence.

// EstimateFinisher reduces executed plan results into a frequency
// estimate.
type EstimateFinisher func(*Results) (Estimate, error)

// NumericFinisher reduces executed plan results into a numeric estimate.
type NumericFinisher func(*Results) (NumericEstimate, error)

// run builds a one-off plan with the planner, executes it on the source
// and finishes — the whole body of every X(src, …) entry point.
func run[T any, F ~func(*Results) (T, error)](src PartialSource, plan func(*Plan) (F, error)) (T, error) {
	var zero T
	p := NewPlan()
	fin, err := plan(p)
	if err != nil {
		return zero, err
	}
	res, err := src.Execute(p)
	if err != nil {
		return zero, err
	}
	return fin(res)
}

// finishFraction is Algorithm 2's reduction of raw counters into the
// debiased estimate; an empty record set reports ErrNoSketches exactly
// like the pre-plan path.
func (e *Estimator) finishFraction(part Partial, b bitvec.Subset) (Estimate, error) {
	if part.Records == 0 {
		return Estimate{}, fmt.Errorf("%w: %v", ErrNoSketches, b)
	}
	observed := float64(part.Hits) / float64(part.Records)
	return e.newEstimate(observed, int(part.Records)), nil
}

// PlanFraction registers one Algorithm 2 evaluation.
func (e *Estimator) PlanFraction(p *Plan, b bitvec.Subset, v bitvec.Vector) (EstimateFinisher, error) {
	ref, err := p.AddFraction(b, v)
	if err != nil {
		return nil, err
	}
	return func(res *Results) (Estimate, error) {
		return e.finishFraction(res.Fraction(ref), b)
	}, nil
}

// matchDistributionFinisher reduces one executed histogram entry into the
// Appendix F match distribution x = V⁻¹·y.
func (e *Estimator) matchDistributionFinisher(ref HistRef, subs []SubQuery) func(*Results) ([]float64, int, error) {
	return func(res *Results) ([]float64, int, error) {
		hp := res.Histogram(ref)
		if hp.Users == 0 {
			return nil, 0, fmt.Errorf("%w: no user sketched all %d subsets", ErrNoSketches, len(subs))
		}
		if len(hp.Hist) != len(subs)+1 {
			return nil, 0, fmt.Errorf("%w: histogram has %d bins for %d sub-queries", ErrMismatch, len(hp.Hist), len(subs))
		}
		y := make([]float64, len(hp.Hist))
		for i, c := range hp.Hist {
			y[i] = float64(c) / float64(hp.Users)
		}
		v := PerturbationMatrix(len(subs), e.p)
		x, err := linalg.Solve(v, y)
		if err != nil {
			return nil, 0, fmt.Errorf("query: perturbation matrix for k=%d, p=%v: %w", len(subs), e.p, err)
		}
		return x, int(hp.Users), nil
	}
}

// planMatchSlice is the shape of every Appendix F combination: register
// the match histogram of h's sub-queries once and estimate Σ_{l=lo..hi} x[l],
// the fraction of users satisfying between lo and hi of them, from the
// match distribution x = V⁻¹·y.
func (e *Estimator) planMatchSlice(p *Plan, h HistogramEval, lo, hi int) (EstimateFinisher, error) {
	ref, err := p.addHistogram(h)
	if err != nil {
		return nil, err
	}
	dist := e.matchDistributionFinisher(ref, h.Subs)
	return func(res *Results) (Estimate, error) {
		x, users, err := dist(res)
		if err != nil {
			return Estimate{}, err
		}
		raw := x[lo]
		for _, xl := range x[lo+1 : hi+1] {
			raw += xl
		}
		return e.estimateFromRaw(raw, users), nil
	}, nil
}

// PlanUnionConjunction registers an Appendix F conjunction over the union
// of the sketched subsets; a single sub-query degrades to plain
// Algorithm 2, skipping the matrix machinery and its conditioning penalty.
func (e *Estimator) PlanUnionConjunction(p *Plan, subs []SubQuery) (EstimateFinisher, error) {
	if len(subs) == 1 {
		return e.PlanFraction(p, subs[0].Subset, subs[0].Value)
	}
	return e.planMatchSlice(p, HistogramEval{Subs: subs}, len(subs), len(subs))
}

// PlanNoneOf registers the none-of-the-sub-queries estimator.
func (e *Estimator) PlanNoneOf(p *Plan, subs []SubQuery) (EstimateFinisher, error) {
	return e.planMatchSlice(p, HistogramEval{Subs: subs}, 0, 0)
}

// PlanExactlyOfK registers the exactly-l-of-k estimator.
func (e *Estimator) PlanExactlyOfK(p *Plan, subs []SubQuery, l int) (EstimateFinisher, error) {
	if l < 0 || l > len(subs) {
		return nil, fmt.Errorf("%w: exactly-%d-of-%d", ErrMismatch, l, len(subs))
	}
	return e.planMatchSlice(p, HistogramEval{Subs: subs}, l, l)
}

// PlanAtLeastOfK registers the at-least-l-of-k estimator: the tail of the
// match distribution.
func (e *Estimator) PlanAtLeastOfK(p *Plan, subs []SubQuery, l int) (EstimateFinisher, error) {
	if l < 0 || l > len(subs) {
		return nil, fmt.Errorf("%w: at-least-%d-of-%d", ErrMismatch, l, len(subs))
	}
	return e.planMatchSlice(p, HistogramEval{Subs: subs}, l, len(subs))
}

// PlanConjunctionFraction registers both halves of the conjunction
// estimator — the exact-subset Algorithm 2 evaluation and the Appendix F
// single-bit gluing fallback — in one plan.  The finisher prefers the
// exact path and falls back only on ErrNoSketches; both candidates ride
// the same table pass and the same fan-out.  The fallback histogram is
// *guarded* by the exact entry: an executor that finds records for the
// exact subset skips the histogram's evaluation entirely, so the common
// exactly-sketched case pays nothing for the speculative fallback.
func (e *Estimator) PlanConjunctionFraction(p *Plan, c bitvec.Conjunction) (EstimateFinisher, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("%w: empty conjunction", ErrMismatch)
	}
	b, v := c.Split()
	exactRef, err := p.AddFraction(b, v)
	if err != nil {
		return nil, err
	}
	subs := make([]SubQuery, c.Len())
	for i, lit := range c {
		val := bitvec.New(1)
		if lit.Value {
			val.Set(0, true)
		}
		subs[i] = SubQuery{Subset: bitvec.MustSubset(lit.Position), Value: val}
	}
	var glueFin EstimateFinisher
	if len(subs) == 1 {
		// A single literal's glue is the same (subset, value) pair as the
		// exact path; dedup collapses them and no histogram exists.
		glueFin, err = e.PlanFraction(p, subs[0].Subset, subs[0].Value)
	} else {
		glueFin, err = e.planMatchSlice(p, HistogramEval{Subs: subs, Guard: exactRef, GuardValid: true}, len(subs), len(subs))
	}
	if err != nil {
		return nil, err
	}
	return func(res *Results) (Estimate, error) {
		est, err := e.finishFraction(res.Fraction(exactRef), b)
		if err == nil || !errors.Is(err, ErrNoSketches) {
			return est, err
		}
		return glueFin(res)
	}, nil
}

// term is one summand of a Section 4.1 decomposition: a conjunctive
// estimate I(B, v) and the weight it enters the sum with.  i and j are the
// indices its planner names it by; they are formatted only if it fails.
type term struct {
	fin  EstimateFinisher
	w    float64
	i, j int
}

// linear is the shape of every Section 4.1 estimator: Σ wᵢ·I(Bᵢ, vᵢ) over
// the terms in order, clamped to the range of the estimated quantity.  The
// sum runs over the unclamped Raw estimates so it stays unbiased; Users is
// the smallest population any term was estimated from (0 for no terms) and
// Queries the number of conjunctive estimates consumed.
func linear(terms []term, label func(term) string, clamp func(float64) float64) NumericFinisher {
	return func(res *Results) (NumericEstimate, error) {
		var sum float64
		users := 0
		for n, t := range terms {
			est, err := t.fin(res)
			if err != nil {
				return NumericEstimate{}, fmt.Errorf("%s: %w", label(t), err)
			}
			sum += t.w * est.Raw
			if n == 0 || est.Users < users {
				users = est.Users
			}
		}
		return NumericEstimate{Value: clamp(sum), Users: users, Queries: len(terms)}, nil
	}
}

// The labels planners name their terms by in errors.
func bitLabel(t term) string       { return fmt.Sprintf("bit %d of field", t.i) }
func bitPairLabel(t term) string   { return fmt.Sprintf("bits (%d,%d)", t.i, t.j) }
func prefixLabel(t term) string    { return fmt.Sprintf("prefix %d", t.i) }
func prefixBitLabel(t term) string { return fmt.Sprintf("prefix %d, bit %d", t.i, t.j) }

// nonNegative clamps an estimate of a quantity that cannot be negative.
func nonNegative(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// pow2 returns 2^n, the weight of a bit n places above the lowest.
func pow2(n int) float64 { return math.Pow(2, float64(n)) }

// PlanFieldMean registers the Section 4.1 decomposition
// Σᵢ 2^(k−i) · I(Aᵢ, 1): one single-bit evaluation per bit of the field,
// clamped to the representable range.
func (e *Estimator) PlanFieldMean(p *Plan, f bitvec.IntField) (NumericFinisher, error) {
	terms := make([]term, 0, f.Width)
	for i := 1; i <= f.Width; i++ {
		fin, err := e.PlanFraction(p, f.BitSubset(i), oneBit())
		t := term{fin: fin, w: pow2(f.Width - i), i: i}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bitLabel(t), err)
		}
		terms = append(terms, t)
	}
	max := float64(f.Max())
	return linear(terms, bitLabel, func(mean float64) float64 { return math.Min(nonNegative(mean), max) }), nil
}

// PlanFieldSum registers the field-sum estimator: mean × users.
func (e *Estimator) PlanFieldSum(p *Plan, f bitvec.IntField) (NumericFinisher, error) {
	meanFin, err := e.PlanFieldMean(p, f)
	if err != nil {
		return nil, err
	}
	return func(res *Results) (NumericEstimate, error) {
		est, err := meanFin(res)
		if err != nil {
			return NumericEstimate{}, err
		}
		est.Value *= float64(est.Users)
		return est, nil
	}, nil
}

// PlanInnerProductMean registers the Section 4.1 inner-product
// decomposition Σᵢ Σⱼ 2^((ka−i)+(kb−j)) · I(Aᵢ ∪ Bⱼ, 11): k² two-bit
// Appendix F combinations.
func (e *Estimator) PlanInnerProductMean(p *Plan, a, b bitvec.IntField) (NumericFinisher, error) {
	terms := make([]term, 0, a.Width*b.Width)
	for i := 1; i <= a.Width; i++ {
		for j := 1; j <= b.Width; j++ {
			fin, err := e.PlanUnionConjunction(p, []SubQuery{
				{Subset: a.BitSubset(i), Value: oneBit()},
				{Subset: b.BitSubset(j), Value: oneBit()},
			})
			t := term{fin: fin, w: pow2(a.Width - i + b.Width - j), i: i, j: j}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", bitPairLabel(t), err)
			}
			terms = append(terms, t)
		}
	}
	return linear(terms, bitPairLabel, nonNegative), nil
}

// PlanFieldLessThan registers the Section 4.1 interval decomposition
// Σ_{i : cᵢ=1} I(Aᵢ, c₁...c_{i−1}0): one prefix evaluation per set bit of
// c.  The whole decomposition lands in one plan, so an interval query
// costs one table pass locally and one fan-out over a cluster instead of
// popcount(c) of each.
func (e *Estimator) PlanFieldLessThan(p *Plan, f bitvec.IntField, c uint64) (NumericFinisher, error) {
	if c > f.Max() {
		// Every representable value is below c.
		ref := p.AddSubsetRecords(f.BitSubset(1))
		return func(res *Results) (NumericEstimate, error) {
			return NumericEstimate{Value: 1, Users: int(res.Count(ref)), Queries: 0}, nil
		}, nil
	}
	cBits := bitvec.FromUint(c, f.Width)
	var terms []term
	for i := 1; i <= f.Width; i++ {
		if !cBits.Get(i - 1) {
			continue
		}
		fin, err := e.PlanFraction(p, f.PrefixSubset(i), prefixValue(c, f.Width, i))
		t := term{fin: fin, w: 1, i: i}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prefixLabel(t), err)
		}
		terms = append(terms, t)
	}
	return linear(terms, prefixLabel, stats.Clamp01), nil
}

// PlanFieldAtMost registers the ≤ c interval query: the strict prefix
// decomposition plus one equality evaluation on the full field subset.
func (e *Estimator) PlanFieldAtMost(p *Plan, f bitvec.IntField, c uint64) (NumericFinisher, error) {
	if c >= f.Max() {
		ref := p.AddSubsetRecords(f.FullSubset())
		return func(res *Results) (NumericEstimate, error) {
			return NumericEstimate{Value: 1, Users: int(res.Count(ref)), Queries: 0}, nil
		}, nil
	}
	lessFin, err := e.PlanFieldLessThan(p, f, c)
	if err != nil {
		return nil, err
	}
	eqFin, err := e.PlanFraction(p, f.FullSubset(), bitvec.FromUint(c, f.Width))
	if err != nil {
		return nil, fmt.Errorf("equality term: %w", err)
	}
	return func(res *Results) (NumericEstimate, error) {
		less, err := lessFin(res)
		if err != nil {
			return NumericEstimate{}, err
		}
		eq, err := eqFin(res)
		if err != nil {
			return NumericEstimate{}, fmt.Errorf("equality term: %w", err)
		}
		users := less.Users
		if less.Queries == 0 || eq.Users < users {
			users = eq.Users
		}
		return NumericEstimate{
			Value:   stats.Clamp01(less.Value + eq.Raw),
			Users:   users,
			Queries: less.Queries + 1,
		}, nil
	}, nil
}

// PlanEqualAndLessThan registers the combined a = c ∧ b < d query
// ("Combining queries together", Section 4.1): the interval decomposition
// of b < d with every prefix term glued to the equality a = c.
func (e *Estimator) PlanEqualAndLessThan(p *Plan, a bitvec.IntField, c uint64, b bitvec.IntField, d uint64) (NumericFinisher, error) {
	if c > a.Max() {
		return nil, fmt.Errorf("%w: constant %d does not fit in field of width %d", ErrMismatch, c, a.Width)
	}
	dBits := bitvec.FromUint(d, b.Width)
	aQuery := SubQuery{Subset: a.FullSubset(), Value: bitvec.FromUint(c, a.Width)}
	var terms []term
	for i := 1; i <= b.Width; i++ {
		if !dBits.Get(i - 1) {
			continue
		}
		fin, err := e.PlanUnionConjunction(p, []SubQuery{aQuery, {Subset: b.PrefixSubset(i), Value: prefixValue(d, b.Width, i)}})
		t := term{fin: fin, w: 1, i: i}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prefixLabel(t), err)
		}
		terms = append(terms, t)
	}
	return linear(terms, prefixLabel, stats.Clamp01), nil
}

// PlanConditionalSumGivenLessThan registers the Section 4.1 double sum
// Σ_{j : c_j=1} Σ_i 2^(k−i) I(A_j ∪ B_i, c₁...c_{j−1}0 1).
func (e *Estimator) PlanConditionalSumGivenLessThan(p *Plan, b bitvec.IntField, a bitvec.IntField, c uint64) (NumericFinisher, error) {
	cBits := bitvec.FromUint(c, a.Width)
	var terms []term
	for j := 1; j <= a.Width; j++ {
		if !cBits.Get(j - 1) {
			continue
		}
		prefixQuery := SubQuery{Subset: a.PrefixSubset(j), Value: prefixValue(c, a.Width, j)}
		for i := 1; i <= b.Width; i++ {
			fin, err := e.PlanUnionConjunction(p, []SubQuery{prefixQuery, {Subset: b.BitSubset(i), Value: oneBit()}})
			t := term{fin: fin, w: pow2(b.Width - i), i: j, j: i}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", prefixBitLabel(t), err)
			}
			terms = append(terms, t)
		}
	}
	return linear(terms, prefixBitLabel, nonNegative), nil
}

// PlanConditionalMeanGivenLessThan registers E[b | a < c]: the conditional
// sum divided by the estimated condition frequency.
func (e *Estimator) PlanConditionalMeanGivenLessThan(p *Plan, b bitvec.IntField, a bitvec.IntField, c uint64) (NumericFinisher, error) {
	numFin, err := e.PlanConditionalSumGivenLessThan(p, b, a, c)
	if err != nil {
		return nil, err
	}
	denFin, err := e.PlanFieldLessThan(p, a, c)
	if err != nil {
		return nil, err
	}
	return func(res *Results) (NumericEstimate, error) {
		num, err := numFin(res)
		if err != nil {
			return NumericEstimate{}, err
		}
		den, err := denFin(res)
		if err != nil {
			return NumericEstimate{}, err
		}
		if den.Value <= 0 {
			return NumericEstimate{}, fmt.Errorf("query: estimated condition frequency is zero; conditional mean undefined")
		}
		val := num.Value / den.Value
		if max := float64(b.Max()); val > max {
			val = max
		}
		return NumericEstimate{Value: val, Users: num.Users, Queries: num.Queries + den.Queries}, nil
	}, nil
}

// PlanDecisionTreeFraction registers one conjunction per accepting
// root-to-leaf path — every user satisfies at most one, so the path
// estimates add; all paths share the plan's single execution.
func (e *Estimator) PlanDecisionTreeFraction(p *Plan, tree *TreeNode) (NumericFinisher, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	paths := tree.AcceptingPaths()
	label := func(t term) string { return fmt.Sprintf("path %v", paths[t.i]) }
	terms := make([]term, 0, len(paths))
	for i, path := range paths {
		if path.Len() == 0 {
			// The root itself is an accepting leaf (the only way a path can
			// be empty): every user satisfies the tree.
			p.AddTotalRecords()
			return func(res *Results) (NumericEstimate, error) {
				return NumericEstimate{Value: 1, Users: int(res.Total), Queries: 0}, nil
			}, nil
		}
		fin, err := e.PlanConjunctionFraction(p, path)
		t := term{fin: fin, w: 1, i: i}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label(t), err)
		}
		terms = append(terms, t)
	}
	return linear(terms, label, stats.Clamp01), nil
}
