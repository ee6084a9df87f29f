package query

import (
	"errors"
	"math"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/prf"
)

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(testSource(0.3)); err != nil {
		t.Errorf("valid estimator rejected: %v", err)
	}
	for _, bad := range []float64{0, 0.5, 0.9} {
		if _, err := NewEstimator(prf.NewOracle(1, prf.MustProb(bad))); !errors.Is(err, ErrBadBias) {
			t.Errorf("bias %v: err = %v, want ErrBadBias", bad, err)
		}
	}
}

func TestEstimateAccessors(t *testing.T) {
	e, _ := NewEstimator(testSource(0.25))
	est := e.newEstimate(0.55, 10000)
	wantRaw := (0.55 - 0.25) / 0.5
	if math.Abs(est.Raw-wantRaw) > 1e-12 || est.Fraction != est.Raw {
		t.Errorf("Raw = %v, want %v", est.Raw, wantRaw)
	}
	if est.Count() != est.Fraction*10000 {
		t.Errorf("Count = %v", est.Count())
	}
	if est.ConfidenceRadius(0.05) <= 0 {
		t.Error("ConfidenceRadius should be positive")
	}
	iv := est.Interval(0.05)
	if !iv.Contains(est.Fraction) {
		t.Error("Interval does not contain the estimate")
	}
	if iv.Lo < 0 || iv.Hi > 1 {
		t.Error("Interval not clamped to [0,1]")
	}
	if est.FailureProb(0.01) <= 0 || est.FailureProb(0.01) > 1 {
		t.Errorf("FailureProb = %v", est.FailureProb(0.01))
	}
	if est.String() == "" {
		t.Error("empty String")
	}
	// Clamping: an observed fraction below p maps to a negative raw value
	// and a zero clamped fraction.
	neg := e.newEstimate(0.1, 100)
	if neg.Raw >= 0 || neg.Fraction != 0 {
		t.Errorf("negative raw estimate not clamped: %+v", neg)
	}
}

func TestFractionInputValidation(t *testing.T) {
	pop := dataset.UniformBinary(1, 200, 8, 0.5)
	b := bitvec.MustSubset(0, 1)
	src, e := buildSource(t, pop, []bitvec.Subset{b}, 0.3, 8, 99)

	if _, err := e.Fraction(src, b, bitvec.MustFromString("1")); !errors.Is(err, ErrMismatch) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := e.Fraction(src, bitvec.MustSubset(), bitvec.New(0)); !errors.Is(err, ErrMismatch) {
		t.Errorf("empty subset err = %v", err)
	}
	if _, err := e.Fraction(src, bitvec.MustSubset(5, 6), bitvec.MustFromString("10")); !errors.Is(err, ErrNoSketches) {
		t.Errorf("missing subset err = %v", err)
	}
}

func TestFractionRecoversPlantedFrequency(t *testing.T) {
	// Lemma 4.1 end to end: the estimate lands within the 1-δ radius of the
	// planted ground truth (generously doubling the radius to keep the test
	// deterministic enough in practice).
	const m = 12000
	p := 0.25
	b := bitvec.MustSubset(1, 3, 5, 7)
	v := bitvec.MustFromString("1011")
	for _, freq := range []float64{0.05, 0.33, 0.71} {
		pop, err := dataset.PlantedConjunction(11, m, 10, b, v, freq, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		src, e := buildSource(t, pop, []bitvec.Subset{b}, p, 10, 5)
		est, err := e.Fraction(src, b, v)
		if err != nil {
			t.Fatal(err)
		}
		truth := pop.TrueFraction(b, v)
		radius := est.ConfidenceRadius(0.01)
		if math.Abs(est.Fraction-truth) > radius {
			t.Errorf("freq %v: estimate %v vs truth %v (radius %v)", freq, est.Fraction, truth, radius)
		}
		if est.Users != m {
			t.Errorf("Users = %d, want %d", est.Users, m)
		}
	}
}

func TestFractionErrorIndependentOfSubsetSize(t *testing.T) {
	// The paper's headline: the error does not grow with the number of
	// attributes in the conjunction.  Plant the same frequency on subsets
	// of very different sizes and check the error scale stays comparable.
	const m = 10000
	p := 0.25
	freq := 0.4
	var errs []float64
	for _, k := range []int{1, 4, 16, 32} {
		b := bitvec.Range(0, k)
		v := bitvec.New(k)
		for i := 0; i < k; i += 2 {
			v.Set(i, true)
		}
		pop, err := dataset.PlantedConjunction(uint64(100+k), m, k+4, b, v, freq, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		src, e := buildSource(t, pop, []bitvec.Subset{b}, p, 10, uint64(7+k))
		est, err := e.Fraction(src, b, v)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(est.Fraction-pop.TrueFraction(b, v)))
	}
	radius := errs[0]
	_ = radius
	bound := 2.5 / (1 - 2*p) * math.Sqrt(math.Log(20)/float64(m))
	for i, e := range errs {
		if e > bound {
			t.Errorf("subset size case %d: error %v exceeds the M-only bound %v", i, e, bound)
		}
	}
}

func TestCountMatchesFraction(t *testing.T) {
	pop := dataset.UniformBinary(3, 4000, 6, 0.5)
	b := bitvec.MustSubset(0, 2)
	v := bitvec.MustFromString("11")
	src, e := buildSource(t, pop, []bitvec.Subset{b}, 0.3, 9, 1)
	est, err := e.Fraction(src, b, v)
	if err != nil {
		t.Fatal(err)
	}
	cnt := est.Count()
	if cnt != est.Fraction*float64(est.Users) {
		t.Errorf("Count=%v, want Fraction %v × Users %d", cnt, est.Fraction, est.Users)
	}
	truth := float64(pop.TrueCount(b, v))
	if math.Abs(cnt-truth) > 0.15*4000 {
		t.Errorf("count estimate %v far from truth %v", cnt, truth)
	}
}

func TestConjunctionFractionExactAndGluedPaths(t *testing.T) {
	// The paper's running example "HIV+ and not AIDS", answered two ways:
	// from a sketch of the exact subset {HIV, AIDS}, and by gluing
	// single-bit sketches via Appendix F.  Both must land near the truth.
	const m = 20000
	p := 0.25
	pop := dataset.Epidemiology(21, m, dataset.EpidemiologyRates{
		HIV: 0.3, AIDSGivenHIV: 0.4, Smoker: 0.2, Diabetic: 0.1,
		Hypertension: 0.2, HyperBoost: 0.2, Obese: 0.3, Insured: 0.9, Urban: 0.5,
	})
	conj := bitvec.MustConjunction(
		bitvec.Literal{Position: dataset.EpiHIV, Value: true},
		bitvec.Literal{Position: dataset.EpiAIDS, Value: false},
	)
	truth := groundTruthConjunction(pop, conj)

	exactSubset, _ := conj.Split()
	exactSrc, e := buildSource(t, pop, []bitvec.Subset{exactSubset}, p, 10, 31)
	exact, err := e.ConjunctionFraction(exactSrc, conj)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Fraction-truth) > 0.04 {
		t.Errorf("exact-subset path: %v vs truth %v", exact.Fraction, truth)
	}

	bitSubsets := []bitvec.Subset{
		bitvec.MustSubset(dataset.EpiHIV),
		bitvec.MustSubset(dataset.EpiAIDS),
	}
	gluedSrc, e2 := buildSource(t, pop, bitSubsets, p, 10, 32)
	glued, err := e2.ConjunctionFraction(gluedSrc, conj)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(glued.Fraction-truth) > 0.08 {
		t.Errorf("glued path: %v vs truth %v", glued.Fraction, truth)
	}
	// Empty conjunction is rejected.
	if _, err := e.ConjunctionFraction(exactSrc, bitvec.Conjunction(nil)); !errors.Is(err, ErrMismatch) {
		t.Errorf("empty conjunction err = %v", err)
	}
}

func TestFractionWithOracleMatchesPRF(t *testing.T) {
	// Ablation: the utility result must not depend on the hash choice —
	// running the whole pipeline against the truly random oracle gives
	// statistically equivalent estimates (the paper's proof device).
	const m = 8000
	p := 0.3
	b := bitvec.MustSubset(0, 1, 2)
	v := bitvec.MustFromString("101")
	pop, err := dataset.PlantedConjunction(55, m, 6, b, v, 0.42, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := pop.TrueFraction(b, v)

	// PRF-backed path (shared helper).
	src, e := buildSource(t, pop, []bitvec.Subset{b}, p, 10, 77)
	prfEst, err := e.Fraction(src, b, v)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle-backed path.
	oracle := prf.NewOracle(123, prf.MustProb(p))
	skOracle, err := sketchWithSource(oracle, p, 10, pop, []bitvec.Subset{b})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := NewEstimator(oracle)
	if err != nil {
		t.Fatal(err)
	}
	oracleEst, err := eo.Fraction(eo.TableSource(skOracle), b, v)
	if err != nil {
		t.Fatal(err)
	}

	for name, est := range map[string]Estimate{"prf": prfEst, "oracle": oracleEst} {
		if math.Abs(est.Fraction-truth) > 0.05 {
			t.Errorf("%s estimate %v vs truth %v", name, est.Fraction, truth)
		}
	}
	if math.Abs(prfEst.Fraction-oracleEst.Fraction) > 0.06 {
		t.Errorf("prf and oracle estimates diverge: %v vs %v", prfEst.Fraction, oracleEst.Fraction)
	}
}
