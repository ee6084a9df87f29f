package sketch

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewParamsValidation(t *testing.T) {
	for _, bad := range []float64{0, 0.5, -0.1, 0.9, math.NaN()} {
		if _, err := NewParams(bad, 10); !errors.Is(err, ErrBadBias) {
			t.Errorf("NewParams(%v, 10) err = %v, want ErrBadBias", bad, err)
		}
	}
	for _, bad := range []int{0, -1, MaxLength + 1} {
		if _, err := NewParams(0.3, bad); !errors.Is(err, ErrBadLength) {
			t.Errorf("NewParams(0.3, %d) err = %v, want ErrBadLength", bad, err)
		}
	}
	if _, err := NewParams(0.3, 10); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := MustParams(0.3, 8)
	if p.KeySpace() != 256 {
		t.Errorf("KeySpace = %d", p.KeySpace())
	}
	if math.Abs(p.AcceptProb()-(0.3*0.3)/(0.7*0.7)) > 1e-12 {
		t.Errorf("AcceptProb = %v", p.AcceptProb())
	}
	if math.Abs(p.TerminationProb()-0.3/0.7) > 1e-12 {
		t.Errorf("TerminationProb = %v", p.TerminationProb())
	}
	if math.Abs(p.ExpectedIterations()-0.7/0.3) > 1e-12 {
		t.Errorf("ExpectedIterations = %v", p.ExpectedIterations())
	}
	if p.WorstCaseIterations() != 256 {
		t.Errorf("WorstCaseIterations = %d", p.WorstCaseIterations())
	}
	if math.Abs(p.PrivacyRatio()-math.Pow(0.7/0.3, 4)) > 1e-9 {
		t.Errorf("PrivacyRatio = %v", p.PrivacyRatio())
	}
	wantFail := math.Pow(1-0.09, 256)
	if math.Abs(p.FailureProb()-wantFail) > 1e-15 {
		t.Errorf("FailureProb = %v, want %v", p.FailureProb(), wantFail)
	}
	if p.SketchBits() != 8 {
		t.Errorf("SketchBits = %d", p.SketchBits())
	}
	if p.String() == "" {
		t.Error("String is empty")
	}
}

func TestEpsilonComposition(t *testing.T) {
	p := MustParams(0.49, 4)
	one := p.Epsilon(1)
	if math.Abs(one-(p.PrivacyRatio()-1)) > 1e-12 {
		t.Errorf("Epsilon(1) = %v", one)
	}
	if p.Epsilon(3) <= p.Epsilon(2) {
		t.Error("epsilon must grow with the number of sketches")
	}
}

func TestMinLengthSatisfiesLemma31(t *testing.T) {
	// The bound must make the per-population failure probability at most
	// tau, and one bit less must not (the bound is essentially tight up to
	// the power-of-two rounding).
	cases := []struct {
		p   float64
		m   int
		tau float64
	}{
		{0.26, 1000, 1e-3},
		{0.3, 1e6, 1e-6},
		{0.4, 1e7, 1e-6},
		{0.45, 100, 0.01},
	}
	for _, c := range cases {
		l, err := MinLength(c.p, c.m, c.tau)
		if err != nil {
			t.Fatalf("MinLength(%v,%d,%v): %v", c.p, c.m, c.tau, err)
		}
		perUser := math.Pow(1-c.p*c.p, math.Pow(2, float64(l)))
		if perUser*float64(c.m) > c.tau*(1+1e-9) {
			t.Errorf("p=%v m=%d tau=%v: ℓ=%d gives population failure %v > tau", c.p, c.m, c.tau, l, perUser*float64(c.m))
		}
	}
}

func TestMinLengthPaperRemarkTenBits(t *testing.T) {
	// "if p > 1/4, then a 10 bit sketch is sufficient for any foreseeable
	// practical use" — check an aggressive practical regime: a billion
	// users and tau = 1e-6.
	l, err := MinLength(0.2500001, 1_000_000_000, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if l > 10 {
		t.Errorf("Lemma 3.1 length for p just above 1/4, M=1e9, tau=1e-6 is %d bits, paper promises <= 10", l)
	}
}

func TestMinLengthValidation(t *testing.T) {
	for _, c := range []struct {
		p   float64
		m   int
		tau float64
	}{
		{0.5, 100, 0.01},
		{math.NaN(), 100, 0.01},
		{0.3, 0, 0.01},
		{0.3, 100, 0},
		{0.3, 100, 1},
		// A NaN τ fails every comparison: unrefused it would give ℓ = 1.
		{0.3, 100, math.NaN()},
	} {
		if l, err := MinLength(c.p, c.m, c.tau); err == nil {
			t.Errorf("MinLength(%v, %d, %v) = %d, accepted", c.p, c.m, c.tau, l)
		}
		if _, err := ParamsFor(c.p, c.m, c.tau); err == nil {
			t.Errorf("ParamsFor(%v, %d, %v) accepted", c.p, c.m, c.tau)
		}
	}
}

func TestMinLengthMonotoneProperty(t *testing.T) {
	// More users or smaller tau never shrinks the required length.
	prop := func(mRaw uint32, tauRaw uint8) bool {
		m := int(mRaw%1_000_000) + 1
		tau := (float64(tauRaw%99) + 1) / 1000
		l1, err1 := MinLength(0.35, m, tau)
		l2, err2 := MinLength(0.35, m*10, tau)
		l3, err3 := MinLength(0.35, m, tau/10)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return l2 >= l1 && l3 >= l1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsFor(t *testing.T) {
	p, err := ParamsFor(0.4, 1_000_000, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 0.4 {
		t.Errorf("P = %v", p.P)
	}
	if p.FailureProb()*1e6 > 1e-6*(1+1e-9) {
		t.Errorf("ParamsFor length %d does not meet the failure target", p.Length)
	}
}

func TestBiasForBudget(t *testing.T) {
	p, err := BiasForBudget(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 - 0.1/(16*4)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("BiasForBudget = %v, want %v", p, want)
	}
	// The resulting parameters should keep epsilon near the requested
	// budget.  Corollary 3.4 is a first-order statement ((1+ε/q)^q ≈ 1+ε),
	// so allow the usual e^ε-style second-order slack.
	params := MustParams(p, 10)
	eps := params.Epsilon(4)
	if eps < 0.1*0.9 || eps > 0.1*1.2 {
		t.Errorf("Epsilon(4) at the prescribed bias = %v, want close to 0.1", eps)
	}
	for _, c := range []struct {
		name string
		eps  float64
		l    int
	}{
		{"zero budget", 0, 4},
		{"NaN budget", math.NaN(), 4},
		{"zero sketches", 0.5, 0},
		{"budget that forces p<=0", 100, 1},
	} {
		if p, err := BiasForBudget(c.eps, c.l); err == nil {
			t.Errorf("%s: BiasForBudget(%v, %d) = %v, accepted", c.name, c.eps, c.l, p)
		}
	}
}

func TestPrivacyUtilityTradeoffMonotone(t *testing.T) {
	// As p approaches 1/2, privacy improves (the likelihood ratio shrinks
	// towards 1), Algorithm 1 terminates sooner on average, and the
	// failure probability at a fixed length shrinks (the per-key success
	// probability p² grows); the price is estimation error ∝ 1/(1−2p),
	// which is tested in the query package.
	loose := MustParams(0.3, 10)
	tight := MustParams(0.45, 10)
	if tight.PrivacyRatio() >= loose.PrivacyRatio() {
		t.Error("privacy ratio should shrink as p approaches 1/2")
	}
	if tight.FailureProb() >= loose.FailureProb() {
		t.Error("failure probability should shrink as p approaches 1/2 at fixed length")
	}
	if tight.ExpectedIterations() >= loose.ExpectedIterations() {
		t.Error("expected iterations should shrink as p approaches 1/2")
	}
}
