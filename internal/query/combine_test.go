package query

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
)

func TestPerturbationMatrixColumnsSumToOne(t *testing.T) {
	for _, k := range []int{1, 2, 5, 8} {
		for _, p := range []float64{0.1, 0.3, 0.45} {
			v := PerturbationMatrix(k, p)
			for l := 0; l <= k; l++ {
				var sum float64
				for lp := 0; lp <= k; lp++ {
					if v.At(lp, l) < 0 {
						t.Fatalf("negative entry at (%d,%d)", lp, l)
					}
					sum += v.At(lp, l)
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("k=%d p=%v: column %d sums to %v", k, p, l, sum)
				}
			}
		}
	}
}

func TestPerturbationMatrixNoPerturbationIsIdentity(t *testing.T) {
	v := PerturbationMatrix(4, 0)
	for l := 0; l <= 4; l++ {
		for lp := 0; lp <= 4; lp++ {
			want := 0.0
			if l == lp {
				want = 1
			}
			if math.Abs(v.At(lp, l)-want) > 1e-12 {
				t.Fatalf("p=0: entry (%d,%d) = %v", lp, l, v.At(lp, l))
			}
		}
	}
}

func TestPerturbationMatrixKnownEntries(t *testing.T) {
	// k=1: a single bit.  From l=1 one: stays one w.p. 1-p.
	p := 0.3
	v := PerturbationMatrix(1, p)
	if math.Abs(v.At(1, 1)-(1-p)) > 1e-12 || math.Abs(v.At(0, 1)-p) > 1e-12 {
		t.Errorf("k=1 column 1 = (%v, %v)", v.At(0, 1), v.At(1, 1))
	}
	// k=2, true l=1: observed 2 requires keeping the one (1-p) and flipping
	// the zero (p).
	v2 := PerturbationMatrix(2, p)
	if math.Abs(v2.At(2, 1)-(1-p)*p) > 1e-12 {
		t.Errorf("k=2 V[2,1] = %v, want %v", v2.At(2, 1), (1-p)*p)
	}
	// true l=2: observed 0 requires flipping both: p².
	if math.Abs(v2.At(0, 2)-p*p) > 1e-12 {
		t.Errorf("k=2 V[0,2] = %v, want %v", v2.At(0, 2), p*p)
	}
}

func TestPerturbationMatrixMatchesDirectEnumeration(t *testing.T) {
	// Cross-check against explicit enumeration over all bit patterns for
	// small k.
	prop := func(kRaw, pRaw uint8) bool {
		k := int(kRaw%4) + 1
		p := 0.05 + 0.4*float64(pRaw)/255
		v := PerturbationMatrix(k, p)
		for l := 0; l <= k; l++ {
			counts := make([]float64, k+1)
			// Enumerate flips: each of the k bits independently flips with
			// probability p; start from a pattern with l ones.
			for mask := 0; mask < 1<<uint(k); mask++ {
				prob := 1.0
				flipped := 0
				for b := 0; b < k; b++ {
					if mask&(1<<uint(b)) != 0 {
						prob *= p
						flipped++
					} else {
						prob *= 1 - p
					}
					_ = flipped
				}
				// Count resulting ones: bits 0..l-1 start as 1.
				ones := 0
				for b := 0; b < k; b++ {
					start := b < l
					flip := mask&(1<<uint(b)) != 0
					if start != flip {
						ones++
					}
				}
				counts[ones] += prob
			}
			for lp := 0; lp <= k; lp++ {
				if math.Abs(counts[lp]-v.At(lp, l)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConditioningGrowsWithKAndShrinksAwayFromHalf(t *testing.T) {
	// The Appendix F remark: the matrix becomes exponentially worse
	// conditioned as k grows, and better conditioned as p moves away from
	// 1/2.
	prev := 0.0
	for _, k := range []int{1, 2, 4, 6, 8} {
		c := Conditioning(k, 0.4)
		if c < prev {
			t.Errorf("conditioning not monotone in k: k=%d gives %v after %v", k, c, prev)
		}
		prev = c
	}
	if Conditioning(6, 0.45) <= Conditioning(6, 0.3) {
		t.Error("conditioning should worsen as p approaches 1/2")
	}
	// Exponential growth: each extra bit should multiply the condition
	// number by roughly a constant factor > 1.
	ratio1 := Conditioning(5, 0.4) / Conditioning(4, 0.4)
	ratio2 := Conditioning(8, 0.4) / Conditioning(7, 0.4)
	if ratio1 < 1.5 || ratio2 < 1.5 {
		t.Errorf("growth ratios %v, %v do not look exponential", ratio1, ratio2)
	}
}

func TestUnionConjunctionRecoversTruth(t *testing.T) {
	// Combine three sketched subsets into one conjunction over their union.
	const m = 25000
	p := 0.25
	b1 := bitvec.MustSubset(0, 1)
	b2 := bitvec.MustSubset(2)
	b3 := bitvec.MustSubset(3, 4)
	union := b1.Union(b2).Union(b3)
	target := bitvec.MustFromString("10110")
	pop, err := dataset.PlantedConjunction(61, m, 6, union, target, 0.35, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	src, e := buildSource(t, pop, []bitvec.Subset{b1, b2, b3}, p, 10, 13)

	subs := []SubQuery{
		{Subset: b1, Value: bitvec.MustFromString("10")},
		{Subset: b2, Value: bitvec.MustFromString("1")},
		{Subset: b3, Value: bitvec.MustFromString("10")},
	}
	est, err := e.UnionConjunction(src, subs)
	if err != nil {
		t.Fatal(err)
	}
	truth := pop.TrueFraction(union, target)
	if math.Abs(est.Fraction-truth) > 0.06 {
		t.Errorf("union conjunction %v vs truth %v", est.Fraction, truth)
	}
	if est.Users != m {
		t.Errorf("Users = %d", est.Users)
	}
}

func TestMatchDistributionAndExactlyOfK(t *testing.T) {
	skipIfShort(t)
	const m = 30000
	p := 0.25
	// Three independent bits with known marginals.
	pop := dataset.UniformBinary(71, m, 3, 0.5)
	subsets := []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(1), bitvec.MustSubset(2)}
	src, e := buildSource(t, pop, subsets, p, 10, 17)
	one := bitvec.MustFromString("1")
	subs := []SubQuery{
		{Subset: subsets[0], Value: one},
		{Subset: subsets[1], Value: one},
		{Subset: subsets[2], Value: one},
	}
	x, users, err := e.MatchDistribution(src, subs)
	if err != nil {
		t.Fatal(err)
	}
	if users != m || len(x) != 4 {
		t.Fatalf("users=%d len(x)=%d", users, len(x))
	}
	// Ground truth distribution of the number of ones among 3 bits.
	truth := make([]float64, 4)
	for _, pr := range pop.Profiles {
		truth[pr.Data.PopCount()]++
	}
	for i := range truth {
		truth[i] /= float64(m)
	}
	for l := 0; l <= 3; l++ {
		if math.Abs(x[l]-truth[l]) > 0.07 {
			t.Errorf("match distribution x[%d] = %v, truth %v", l, x[l], truth[l])
		}
		est, err := e.ExactlyOfK(src, subs, l)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Fraction-math.Max(0, truth[l])) > 0.07 {
			t.Errorf("ExactlyOfK(%d) = %v, truth %v", l, est.Fraction, truth[l])
		}
	}
	// AtLeastOfK(0) is everything.
	all, err := e.AtLeastOfK(src, subs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all.Raw-1) > 0.05 {
		t.Errorf("AtLeastOfK(0) raw = %v, want ~1", all.Raw)
	}
	// NoneOf matches x[0].
	none, err := e.NoneOf(src, subs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(none.Raw-x[0]) > 1e-9 {
		t.Errorf("NoneOf = %v, x[0] = %v", none.Raw, x[0])
	}
	// Out-of-range l rejected.
	if _, err := e.ExactlyOfK(src, subs, 4); !errors.Is(err, ErrMismatch) {
		t.Error("ExactlyOfK out of range accepted")
	}
	if _, err := e.AtLeastOfK(src, subs, -1); !errors.Is(err, ErrMismatch) {
		t.Error("AtLeastOfK out of range accepted")
	}
}

func TestCombineValidation(t *testing.T) {
	pop := dataset.UniformBinary(81, 100, 4, 0.5)
	b := bitvec.MustSubset(0)
	src, e := buildSource(t, pop, []bitvec.Subset{b}, 0.3, 8, 3)
	one := bitvec.MustFromString("1")

	if _, err := e.UnionConjunction(src, nil); !errors.Is(err, ErrMismatch) {
		t.Error("empty sub-query list accepted")
	}
	bad := []SubQuery{{Subset: b, Value: bitvec.MustFromString("11")}}
	if _, _, err := e.MatchDistribution(src, bad); !errors.Is(err, ErrMismatch) {
		t.Error("mismatched sub-query accepted")
	}
	missing := []SubQuery{{Subset: b, Value: one}, {Subset: bitvec.MustSubset(3), Value: one}}
	if _, err := e.UnionConjunction(src, missing); !errors.Is(err, ErrNoSketches) {
		t.Error("missing subset accepted")
	}
	if _, err := e.NoneOf(src, nil); !errors.Is(err, ErrMismatch) {
		t.Error("NoneOf with no sub-queries accepted")
	}
	// Single sub-query short-circuits to Algorithm 2.
	est, err := e.UnionConjunction(src, []SubQuery{{Subset: b, Value: one}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Fraction(src, b, one)
	if err != nil {
		t.Fatal(err)
	}
	if est != direct {
		t.Error("single sub-query UnionConjunction should equal Fraction")
	}
}

func TestProductWeightUnbiasedness(t *testing.T) {
	// E[w | true bit] must be 1 when the true bit equals the target and 0
	// otherwise, for any flip probability below 1/2.
	for _, flip := range []float64{0.1, 0.3, 0.42, 0.45} {
		for _, target := range []bool{false, true} {
			for _, truth := range []bool{false, true} {
				// Pr[observed = truth] = 1-flip, Pr[observed != truth] = flip.
				wSame, err := productWeight(truth == target, flip)
				if err != nil {
					t.Fatal(err)
				}
				wDiff, err := productWeight(!truth == target, flip)
				if err != nil {
					t.Fatal(err)
				}
				expect := wSame*(1-flip) + wDiff*flip
				want := 0.0
				if truth == target {
					want = 1
				}
				if math.Abs(expect-want) > 1e-12 {
					t.Errorf("flip=%v target=%v truth=%v: E[w]=%v want %v", flip, target, truth, expect, want)
				}
			}
		}
	}
	if _, err := productWeight(true, 0.5); err == nil {
		t.Error("flip probability 1/2 accepted")
	}
}

func TestProductFractionValidation(t *testing.T) {
	col := virtualColumn{observed: []uint64{1}, target: true, flipProb: 0.2}
	if _, err := productFraction([]virtualColumn{col}, 0); !errors.Is(err, ErrNoSketches) {
		t.Error("no users accepted")
	}
	if _, err := productFraction([]virtualColumn{col}, 65); !errors.Is(err, ErrMismatch) {
		t.Error("column shorter than the user count accepted")
	}
}
