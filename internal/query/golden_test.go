package query

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
)

// TestEstimatorGoldenBits pins every estimator of this package — Algorithm
// 2, the Section 4.1 decompositions, Appendix E and Appendix F — to the
// exact bits, user counts, query counts and error strings it produced on
// one seeded table when the literals below were recorded.  The plan-vs-
// per-call and oracle differencing tests run the same finishers on both
// sides, so only a comparison against recorded values can see a finisher
// change: a reordered sum, a different clamp, another Users convention for
// an empty term list, a reworded error.
func TestEstimatorGoldenBits(t *testing.T) {
	const m, k = 3000, 3
	pop, a, b := twoFieldPopulation(1601, m, k)
	subsets := append(FieldBitSubsets(a), FieldBitSubsets(b)...)
	// Prefix 1 is bit 1's subset; the longer prefixes are new subsets.
	subsets = append(subsets, FieldPrefixSubsets(a)[1:]...)
	subsets = append(subsets, FieldPrefixSubsets(b)[1:]...)
	tab, e := buildTable(t, pop, subsets, 0.25, 10, 1602)
	src := e.TableSource(tab)

	var got []string
	num := func(name string, n NumericEstimate, err error) {
		if err != nil {
			got = append(got, fmt.Sprintf("%s: err %q", name, err))
			return
		}
		got = append(got, fmt.Sprintf("%s: value %#016x users %d queries %d", name, math.Float64bits(n.Value), n.Users, n.Queries))
	}
	est := func(name string, x Estimate, err error) {
		if err != nil {
			got = append(got, fmt.Sprintf("%s: err %q", name, err))
			return
		}
		got = append(got, fmt.Sprintf("%s: fraction %#016x raw %#016x users %d", name, math.Float64bits(x.Fraction), math.Float64bits(x.Raw), x.Users))
	}
	vec := bitvec.MustFromString
	lit := func(pos int, v bool) bitvec.Literal { return bitvec.Literal{Position: pos, Value: v} }
	unsketched := bitvec.MustIntField(8, 2)
	wide := bitvec.MustIntField(0, 5)

	// Algorithm 2.
	x, err := e.Fraction(src, a.PrefixSubset(2), vec("10"))
	est("fraction", x, err)
	x, err = e.Fraction(src, bitvec.MustSubset(9), vec("1"))
	est("fraction/unsketched", x, err)
	x, err = e.Fraction(src, a.PrefixSubset(2), vec("1"))
	est("fraction/shape", x, err)
	x, err = e.Fraction(src, b.FullSubset(), vec("011"))
	num("count", NumericEstimate{Value: x.Count()}, err)
	x, err = e.ConjunctionFraction(src, bitvec.MustConjunction(lit(0, true), lit(1, false)))
	est("conjunction/exact", x, err)
	x, err = e.ConjunctionFraction(src, bitvec.MustConjunction(lit(0, true), lit(4, false), lit(5, true)))
	est("conjunction/glued", x, err)
	x, err = e.ConjunctionFraction(src, bitvec.MustConjunction(lit(4, true)))
	est("conjunction/one-literal", x, err)
	x, err = e.ConjunctionFraction(src, bitvec.MustConjunction(lit(0, true), lit(9, true)))
	est("conjunction/unsketched", x, err)
	x, err = e.ConjunctionFraction(src, bitvec.Conjunction{})
	est("conjunction/empty", x, err)

	// Section 4.1.
	n, err := e.FieldMean(src, a)
	num("mean", n, err)
	n, err = e.FieldMean(src, unsketched)
	num("mean/unsketched", n, err)
	n, err = e.FieldSum(src, b)
	num("sum", n, err)
	n, err = e.InnerProductMean(src, a, b)
	num("inner-product", n, err)
	n, err = e.InnerProductMean(src, a, unsketched)
	num("inner-product/unsketched", n, err)
	for _, c := range []uint64{0, 1, 5, 7, 8} {
		n, err = e.FieldLessThan(src, a, c)
		num(fmt.Sprintf("less-than/%d", c), n, err)
		n, err = e.FieldAtMost(src, b, c)
		num(fmt.Sprintf("at-most/%d", c), n, err)
	}
	n, err = e.FieldLessThan(src, unsketched, 2)
	num("less-than/unsketched", n, err)
	n, err = e.FieldAtMost(src, wide, 6)
	num("at-most/unsketched-equality", n, err)
	for _, d := range []uint64{0, 3, 6} {
		n, err = e.EqualAndLessThan(src, a, 5, b, d)
		num(fmt.Sprintf("equal-and-less-than/%d", d), n, err)
	}
	n, err = e.EqualAndLessThan(src, a, 8, b, 3)
	num("equal-and-less-than/constant-too-wide", n, err)
	n, err = e.EqualAndLessThan(src, a, 5, unsketched, 3)
	num("equal-and-less-than/unsketched", n, err)
	for _, c := range []uint64{0, 3, 6} {
		n, err = e.ConditionalSumGivenLessThan(src, b, a, c)
		num(fmt.Sprintf("conditional-sum/%d", c), n, err)
		n, err = e.ConditionalMeanGivenLessThan(src, b, a, c)
		num(fmt.Sprintf("conditional-mean/%d", c), n, err)
	}
	n, err = e.ConditionalSumGivenLessThan(src, unsketched, a, 3)
	num("conditional-sum/unsketched", n, err)
	trees := []struct {
		name string
		tree *TreeNode
	}{
		{"exact-and-glued", Node(0, Node(4, Leaf(false), Leaf(true)), Node(1, Leaf(true), Leaf(false)))},
		{"no-accepting-leaf", Node(0, Leaf(false), Node(1, Leaf(false), Leaf(false)))},
		{"root-accepts", Leaf(true)},
		{"unsketched", Node(0, Leaf(false), Node(9, Leaf(true), Leaf(false)))},
		{"repeated-attribute", Node(0, Leaf(false), Node(0, Leaf(true), Leaf(false)))},
	}
	for _, tc := range trees {
		n, err = e.DecisionTreeFraction(src, tc.tree)
		num("tree/"+tc.name, n, err)
	}

	// Appendix E.
	for r := -1; r <= k+1; r++ {
		n, err = e.SumLessThanPow2(tab, a, b, r)
		num(fmt.Sprintf("sum-less-than-pow2/%d", r), n, err)
	}
	n, err = e.SumLessThanPow2(tab, a, wide, 2)
	num("sum-less-than-pow2/widths", n, err)
	n, err = e.SumLessThanPow2(tab, a, bitvec.MustIntField(8, k), 2)
	num("sum-less-than-pow2/unsketched", n, err)

	// Appendix F.
	subs := []SubQuery{
		{Subset: a.PrefixSubset(2), Value: vec("01")},
		{Subset: b.BitSubset(1), Value: vec("1")},
		{Subset: b.PrefixSubset(3), Value: vec("110")},
	}
	dist, users, err := e.MatchDistribution(src, subs)
	if err != nil {
		t.Fatal(err)
	}
	for l, xl := range dist {
		got = append(got, fmt.Sprintf("match-distribution[%d]: %#016x users %d", l, math.Float64bits(xl), users))
	}
	x, err = e.UnionConjunction(src, subs)
	est("union", x, err)
	x, err = e.UnionConjunction(src, subs[:1])
	est("union/one", x, err)
	x, err = e.UnionConjunction(src, nil)
	est("union/none", x, err)
	x, err = e.NoneOf(src, subs)
	est("none-of", x, err)
	x, err = e.NoneOf(src, []SubQuery{{Subset: a.PrefixSubset(2), Value: vec("1")}})
	est("none-of/shape", x, err)
	for l := -1; l <= len(subs)+1; l++ {
		x, err = e.ExactlyOfK(src, subs, l)
		est(fmt.Sprintf("exactly/%d", l), x, err)
		x, err = e.AtLeastOfK(src, subs, l)
		est(fmt.Sprintf("at-least/%d", l), x, err)
	}
	x, err = e.NoneOf(src, []SubQuery{subs[0], {Subset: bitvec.MustSubset(9), Value: vec("1")}})
	est("none-of/unsketched", x, err)

	want := strings.Split(strings.TrimSpace(estimatorGolden), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i, g, w)
		}
	}
	if t.Failed() {
		t.Logf("full output:\n%s", strings.Join(got, "\n"))
	}
}

// estimatorGolden is TestEstimatorGoldenBits' expected output, recorded at
// commit 80f4169 (before the estimators were rebuilt on the linear and
// match-distribution combinators).
const estimatorGolden = `
fraction: fraction 0x3fcf258bf258bf24 raw 0x3fcf258bf258bf24 users 3000
fraction/unsketched: err "query: no sketches available for the requested subset: {9}"
fraction/shape: err "query: query shape mismatch: subset of size 2 queried with value of length 1"
count: value 0x407bc00000000001 users 0 queries 0
conjunction/exact: fraction 0x3fcf258bf258bf24 raw 0x3fcf258bf258bf24 users 3000
conjunction/glued: fraction 0x3fc131d5acb6f464 raw 0x3fc131d5acb6f464 users 3000
conjunction/one-literal: fraction 0x3fde4b17e4b17e4c raw 0x3fde4b17e4b17e4c users 3000
conjunction/unsketched: err "query: no sketches available for the requested subset: no user sketched all 2 subsets"
conjunction/empty: err "query: query shape mismatch: empty conjunction"
mean: value 0x400c7983c131d5ae users 3000 queries 3
mean/unsketched: err "bit 1 of field: query: no sketches available for the requested subset: {8}"
sum: value 0x40c43d0000000000 users 3000 queries 3
inner-product: value 0x40297258bf258bf1 users 3000 queries 9
inner-product/unsketched: err "bits (1,1): query: no sketches available for the requested subset: no user sketched all 2 subsets"
less-than/0: value 0x0000000000000000 users 0 queries 0
at-most/0: value 0x3fc04c756b2dbd18 users 3000 queries 1
less-than/1: value 0x3fc1111111111110 users 3000 queries 1
at-most/1: value 0x3fd0b9af72015d86 users 3000 queries 2
less-than/5: value 0x3fe3645a1cac0831 users 3000 queries 2
at-most/5: value 0x3fe8ca11bfd44f31 users 3000 queries 3
less-than/7: value 0x3fea846ff513cc1e users 3000 queries 3
at-most/7: value 0x3ff0000000000000 users 3000 queries 0
less-than/8: value 0x3ff0000000000000 users 3000 queries 0
at-most/8: value 0x3ff0000000000000 users 3000 queries 0
less-than/unsketched: err "prefix 1: query: no sketches available for the requested subset: {8}"
at-most/unsketched-equality: err "prefix 4: query: no sketches available for the requested subset: {0,1,2,3}"
equal-and-less-than/0: value 0x0000000000000000 users 0 queries 0
equal-and-less-than/3: value 0x3fb3333333333332 users 3000 queries 2
equal-and-less-than/6: value 0x3fb916872b020c47 users 3000 queries 2
equal-and-less-than/constant-too-wide: err "query: query shape mismatch: constant 8 does not fit in field of width 3"
equal-and-less-than/unsketched: err "prefix 1: query: no sketches available for the requested subset: no user sketched all 2 subsets"
conditional-sum/0: value 0x0000000000000000 users 0 queries 0
conditional-mean/0: err "query: estimated condition frequency is zero; conditional mean undefined"
conditional-sum/3: value 0x3ff1604189374bc7 users 3000 queries 6
conditional-mean/3: value 0x400a10624dd2f1aa users 3000 queries 8
conditional-sum/6: value 0x400310624dd2f1a9 users 3000 queries 6
conditional-mean/6: value 0x400ab3458eb3458e users 3000 queries 8
conditional-sum/unsketched: err "prefix 2, bit 1: query: no sketches available for the requested subset: no user sketched all 2 subsets"
tree/exact-and-glued: value 0x3fde60f04c756b2d users 3000 queries 2
tree/no-accepting-leaf: value 0x0000000000000000 users 0 queries 0
tree/root-accepts: value 0x3ff0000000000000 users 30000 queries 0
tree/unsketched: err "path x0 ∧ ¬x9: query: no sketches available for the requested subset: no user sketched all 2 subsets"
tree/repeated-attribute: err "query: attribute 0 tested twice on one path"
sum-less-than-pow2/-1: err "query: query shape mismatch: negative threshold exponent -1"
sum-less-than-pow2/0: value 0x0000000000000000 users 3000 queries 1
sum-less-than-pow2/1: value 0x3faf671529a485ce users 3000 queries 2
sum-less-than-pow2/2: value 0x3fc4cccccccccccd users 3000 queries 3
sum-less-than-pow2/3: value 0x3fddf0fb38a94d24 users 3000 queries 4
sum-less-than-pow2/4: value 0x3ff0000000000000 users 0 queries 0
sum-less-than-pow2/widths: err "query: query shape mismatch: fields have widths 3 and 5"
sum-less-than-pow2/unsketched: err "query: no sketches available for the requested subset: need single-bit sketches of both fields"
match-distribution[0]: 0x3fd828f5c28f5c29 users 3000
match-distribution[1]: 0x3fdad916872b020b users 3000
match-distribution[2]: 0x3fc6d916872b0213 users 3000
match-distribution[3]: 0x3f9916872b020c36 users 3000
union: fraction 0x3f9916872b020c36 raw 0x3f9916872b020c36 users 3000
union/one: fraction 0x3fcece2a53490b9c raw 0x3fcece2a53490b9c users 3000
union/none: err "query: query shape mismatch: combined query needs at least one sub-query"
none-of: fraction 0x3fd828f5c28f5c29 raw 0x3fd828f5c28f5c29 users 3000
none-of/shape: err "query: query shape mismatch: sub-query 0 has subset size 2 and value length 1"
exactly/-1: err "query: query shape mismatch: exactly--1-of-3"
at-least/-1: err "query: query shape mismatch: at-least--1-of-3"
exactly/0: fraction 0x3fd828f5c28f5c29 raw 0x3fd828f5c28f5c29 users 3000
at-least/0: fraction 0x3ff0000000000000 raw 0x3ff0000000000000 users 3000
exactly/1: fraction 0x3fdad916872b020b raw 0x3fdad916872b020b users 3000
at-least/1: fraction 0x3fe3eb851eb851ec raw 0x3fe3eb851eb851ec users 3000
exactly/2: fraction 0x3fc6d916872b0213 raw 0x3fc6d916872b0213 users 3000
at-least/2: fraction 0x3fc9fbe76c8b439a raw 0x3fc9fbe76c8b439a users 3000
exactly/3: fraction 0x3f9916872b020c36 raw 0x3f9916872b020c36 users 3000
at-least/3: fraction 0x3f9916872b020c36 raw 0x3f9916872b020c36 users 3000
exactly/4: err "query: query shape mismatch: exactly-4-of-3"
at-least/4: err "query: query shape mismatch: at-least-4-of-3"
none-of/unsketched: err "query: no sketches available for the requested subset: no user sketched all 2 subsets"
`

// TestIntervalPlanCompileAllocations pins what compiling one interval of
// the fleet benchmark's query-cached deck costs: a 10-bit field, five
// prefix terms per bound plus the equality term, eleven plan entries.
// Term labels are formatted on the error path only, so the per-term cost
// is the plan entry itself.
func TestIntervalPlanCompileAllocations(t *testing.T) {
	f := bitvec.MustIntField(0, 10)
	const lo, hi = 0b0101100110, 0b1010011001
	e, err := NewEstimator(testSource(0.25))
	if err != nil {
		t.Fatal(err)
	}
	var entries int
	allocs := testing.AllocsPerRun(100, func() {
		p := NewPlan()
		if _, err := e.PlanFieldAtMost(p, f, hi); err != nil {
			t.Fatal(err)
		}
		if _, err := e.PlanFieldLessThan(p, f, lo); err != nil {
			t.Fatal(err)
		}
		entries = len(p.Fractions())
	})
	if entries != 11 {
		t.Fatalf("plan has %d entries, want the deck's 11", entries)
	}
	// 107 at commit 80f4169, where every planner kept a labelled term list.
	if allocs > 107 {
		t.Errorf("compiling the interval plan allocates %v times, want ≤ 107", allocs)
	}
}
