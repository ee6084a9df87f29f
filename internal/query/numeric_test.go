package query

import (
	"errors"
	"math"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/stats"
)

// smallSalaryPopulation builds a compact salary-like population with a
// 5-bit age-like field and a 6-bit salary-like field so numeric tests stay
// fast while exercising the full decompositions.
func smallSalaryPopulation(seed uint64, m int) (*dataset.Population, bitvec.IntField, bitvec.IntField) {
	a := bitvec.MustIntField(0, 5)
	b := bitvec.MustIntField(a.End(), 6)
	rng := stats.NewRNG(seed)
	pop := &dataset.Population{Width: b.End(), Profiles: make([]bitvec.Profile, m)}
	for u := 0; u < m; u++ {
		d := bitvec.New(b.End())
		a.Encode(d, uint64(rng.Intn(32)))
		b.Encode(d, uint64(rng.Intn(64)))
		pop.Profiles[u] = bitvec.Profile{ID: bitvec.UserID(u + 1), Data: d}
	}
	return pop, a, b
}

func TestFieldSubsetHelpers(t *testing.T) {
	f := bitvec.MustIntField(3, 4)
	bits := FieldBitSubsets(f)
	if len(bits) != 4 || bits[0].At(0) != 3 || bits[3].At(0) != 6 {
		t.Errorf("FieldBitSubsets = %v", bits)
	}
	prefixes := FieldPrefixSubsets(f)
	if len(prefixes) != 4 || prefixes[0].Len() != 1 || prefixes[3].Len() != 4 {
		t.Errorf("FieldPrefixSubsets = %v", prefixes)
	}
}

func TestFieldMeanAndSum(t *testing.T) {
	skipIfShort(t)
	const m = 30000
	p := 0.25
	pop, age, salary := smallSalaryPopulation(5, m)
	subsets := append(FieldBitSubsets(age), FieldBitSubsets(salary)...)
	src, e := buildSource(t, pop, subsets, p, 10, 9)

	for _, tc := range []struct {
		name  string
		field bitvec.IntField
	}{{"age", age}, {"salary", salary}} {
		truth := pop.TrueMean(tc.field)
		est, err := e.FieldMean(src, tc.field)
		if err != nil {
			t.Fatal(err)
		}
		if est.Queries != tc.field.Width || est.Users != m {
			t.Errorf("%s: queries=%d users=%d", tc.name, est.Queries, est.Users)
		}
		if stats.RelativeError(est.Value, truth) > 0.08 {
			t.Errorf("%s mean estimate %v vs truth %v", tc.name, est.Value, truth)
		}
		sum, err := e.FieldSum(src, tc.field)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum.Value-est.Value*float64(m)) > 1e-6 {
			t.Errorf("%s sum inconsistent with mean", tc.name)
		}
	}
	// Missing sketches surface as ErrNoSketches.
	other := bitvec.MustIntField(50, 3)
	if _, err := e.FieldMean(src, other); !errors.Is(err, ErrNoSketches) {
		t.Errorf("missing field err = %v", err)
	}
}

func TestInnerProductMean(t *testing.T) {
	skipIfShort(t)
	const m = 20000
	p := 0.25
	// Two tiny correlated fields: b = a + noise keeps the inner product
	// meaningfully above the product of means.
	a := bitvec.MustIntField(0, 3)
	b := bitvec.MustIntField(3, 3)
	rng := stats.NewRNG(44)
	pop := &dataset.Population{Width: 6, Profiles: make([]bitvec.Profile, m)}
	for u := 0; u < m; u++ {
		d := bitvec.New(6)
		av := uint64(rng.Intn(8))
		bv := av
		if rng.Bernoulli(0.5) {
			bv = uint64(rng.Intn(8))
		}
		a.Encode(d, av)
		b.Encode(d, bv)
		pop.Profiles[u] = bitvec.Profile{ID: bitvec.UserID(u + 1), Data: d}
	}
	subsets := append(FieldBitSubsets(a), FieldBitSubsets(b)...)
	src, e := buildSource(t, pop, subsets, p, 10, 45)

	truth := pop.TrueInnerProductMean(a, b)
	est, err := e.InnerProductMean(src, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est.Queries != a.Width*b.Width {
		t.Errorf("queries = %d, want %d", est.Queries, a.Width*b.Width)
	}
	if stats.RelativeError(est.Value, truth) > 0.15 {
		t.Errorf("inner product estimate %v vs truth %v", est.Value, truth)
	}
}

func TestFieldLessThanAndAtMost(t *testing.T) {
	skipIfShort(t)
	const m = 25000
	p := 0.25
	pop, _, salary := smallSalaryPopulation(6, m)
	// The last prefix subset is the full field, which also serves the
	// equality term of FieldAtMost.
	subsets := FieldPrefixSubsets(salary)
	src, e := buildSource(t, pop, subsets, p, 10, 10)

	for _, c := range []uint64{0, 7, 20, 40, 63} {
		truthLess := 0.0
		for _, pr := range pop.Profiles {
			if salary.Decode(pr.Data) < c {
				truthLess++
			}
		}
		truthLess /= float64(m)
		less, err := e.FieldLessThan(src, salary, c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(less.Value-truthLess) > 0.06 {
			t.Errorf("c=%d: LessThan %v vs truth %v", c, less.Value, truthLess)
		}
		truthAtMost := pop.TrueFractionAtMost(salary, c)
		atMost, err := e.FieldAtMost(src, salary, c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(atMost.Value-truthAtMost) > 0.06 {
			t.Errorf("c=%d: AtMost %v vs truth %v", c, atMost.Value, truthAtMost)
		}
		// Query-count accounting: one prefix query per set bit of c.
		if less.Queries != bitvec.FromUint(c, salary.Width).PopCount() {
			t.Errorf("c=%d: LessThan used %d queries, want popcount %d", c, less.Queries, bitvec.FromUint(c, salary.Width).PopCount())
		}
	}
	// c beyond the representable range short-circuits to 1.
	big, err := e.FieldAtMost(src, salary, salary.Max()+5)
	if err != nil || big.Value != 1 {
		t.Errorf("AtMost beyond range = %v, %v", big.Value, err)
	}
	bigLess, err := e.FieldLessThan(src, salary, salary.Max()+5)
	if err != nil || bigLess.Value != 1 {
		t.Errorf("LessThan beyond range = %v, %v", bigLess.Value, err)
	}
}

func TestEqualAndLessThan(t *testing.T) {
	skipIfShort(t)
	const m = 30000
	p := 0.25
	// Small fields so the joint event is frequent enough to measure.
	a := bitvec.MustIntField(0, 2)
	b := bitvec.MustIntField(2, 4)
	rng := stats.NewRNG(52)
	pop := &dataset.Population{Width: 6, Profiles: make([]bitvec.Profile, m)}
	for u := 0; u < m; u++ {
		d := bitvec.New(6)
		a.Encode(d, uint64(rng.Intn(4)))
		b.Encode(d, uint64(rng.Intn(16)))
		pop.Profiles[u] = bitvec.Profile{ID: bitvec.UserID(u + 1), Data: d}
	}
	subsets := append([]bitvec.Subset{a.FullSubset()}, FieldPrefixSubsets(b)...)
	src, e := buildSource(t, pop, subsets, p, 10, 53)

	c, dThr := uint64(2), uint64(9)
	truth := 0.0
	for _, pr := range pop.Profiles {
		if a.Decode(pr.Data) == c && b.Decode(pr.Data) < dThr {
			truth++
		}
	}
	truth /= float64(m)
	est, err := e.EqualAndLessThan(src, a, c, b, dThr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth) > 0.07 {
		t.Errorf("EqualAndLessThan %v vs truth %v", est.Value, truth)
	}
	if _, err := e.EqualAndLessThan(src, a, 9, b, dThr); !errors.Is(err, ErrMismatch) {
		t.Error("constant outside the field accepted")
	}
}

func TestConditionalMeanGivenLessThan(t *testing.T) {
	skipIfShort(t)
	const m = 30000
	p := 0.25
	// b is larger when a is small, so conditioning on a < c shifts the mean
	// of b visibly.
	a := bitvec.MustIntField(0, 3)
	b := bitvec.MustIntField(3, 4)
	rng := stats.NewRNG(62)
	pop := &dataset.Population{Width: 7, Profiles: make([]bitvec.Profile, m)}
	for u := 0; u < m; u++ {
		d := bitvec.New(7)
		av := uint64(rng.Intn(8))
		bv := uint64(rng.Intn(8))
		if av < 4 {
			bv += 8
		}
		a.Encode(d, av)
		b.Encode(d, bv)
		pop.Profiles[u] = bitvec.Profile{ID: bitvec.UserID(u + 1), Data: d}
	}
	subsets := append(FieldPrefixSubsets(a), FieldBitSubsets(b)...)
	src, e := buildSource(t, pop, subsets, p, 10, 63)

	c := uint64(4)
	var truthSum, truthCount float64
	for _, pr := range pop.Profiles {
		if a.Decode(pr.Data) < c {
			truthSum += float64(b.Decode(pr.Data))
			truthCount++
		}
	}
	truthMean := truthSum / truthCount

	est, err := e.ConditionalMeanGivenLessThan(src, b, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelativeError(est.Value, truthMean) > 0.12 {
		t.Errorf("conditional mean %v vs truth %v", est.Value, truthMean)
	}
	// The conditional mean must be visibly above the unconditional one for
	// this construction (unconditional ≈ 7.25, conditional ≈ 11.5).
	if est.Value < 9 {
		t.Errorf("conditional mean %v does not reflect the planted shift", est.Value)
	}
}
