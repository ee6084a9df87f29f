package experiment

import (
	"math"

	"sketchprivacy/internal/baseline"
	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/privacy"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/wire"
)

// compactSalary builds a reduced salary survey (narrow fields) so the
// numeric experiments run at harness scale.
func compactSalary(seed uint64, m int) (*dataset.Population, bitvec.IntField, bitvec.IntField) {
	age := bitvec.MustIntField(0, 6)    // 0..63 "age"
	salary := bitvec.MustIntField(6, 7) // 0..127 "salary" in k$
	rng := stats.NewRNG(seed)
	pop := &dataset.Population{Width: salary.End(), Profiles: make([]bitvec.Profile, m)}
	for u := 0; u < m; u++ {
		d := bitvec.New(salary.End())
		a := 18 + rng.Intn(46)
		age.Encode(d, uint64(a))
		s := math.Exp(math.Log(45) + 0.5*rng.NormFloat64())
		if s > 127 {
			s = 127
		}
		salary.Encode(d, uint64(s))
		pop.Profiles[u] = bitvec.Profile{ID: bitvec.UserID(u + 1), Data: d}
	}
	return pop, age, salary
}

// RunE9 reproduces the Section 4.1 numeric decompositions: means via
// per-bit queries and inner products via glued two-bit queries.
func RunE9(cfg Config) (*Table, error) {
	p := 0.25
	m := cfg.Users
	pop, age, salary := compactSalary(cfg.Seed+20, m)
	subsets := append(query.FieldBitSubsets(age), query.FieldBitSubsets(salary)...)
	tab, est, err := sketchPopulation(pop, subsets, p, 10, cfg.Seed+21)
	if err != nil {
		return nil, err
	}
	src := est.TableSource(tab)
	t := &Table{
		ID:      "E9",
		Caption: "Numeric queries from per-bit sketches (p=0.25)",
		Columns: []string{"query", "true", "estimate", "rel_err", "conjunctive_queries"},
	}
	for _, tc := range []struct {
		name  string
		field bitvec.IntField
	}{{"mean(age)", age}, {"mean(salary)", salary}} {
		truth := pop.TrueMean(tc.field)
		e, err := est.FieldMean(src, tc.field)
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.name, truth, e.Value, stats.RelativeError(e.Value, truth), e.Queries)
	}
	if !cfg.Quick {
		truth := pop.TrueInnerProductMean(age, salary)
		e, err := est.InnerProductMean(src, age, salary)
		if err != nil {
			return nil, err
		}
		t.AddRow("mean(age*salary)", truth, e.Value, stats.RelativeError(e.Value, truth), e.Queries)
	}
	return t, nil
}

// RunE10 reproduces the Section 4.1 interval and combined queries.
func RunE10(cfg Config) (*Table, error) {
	p := 0.25
	m := cfg.Users
	pop, age, salary := compactSalary(cfg.Seed+30, m)
	subsets := append(query.FieldPrefixSubsets(salary), query.FieldPrefixSubsets(age)...)
	subsets = dedupeSubsets(append(subsets, query.FieldBitSubsets(salary)...))
	tab, est, err := sketchPopulation(pop, subsets, p, 10, cfg.Seed+31)
	if err != nil {
		return nil, err
	}
	src := est.TableSource(tab)
	t := &Table{
		ID:      "E10",
		Caption: "Interval and combined queries (p=0.25)",
		Columns: []string{"query", "true", "estimate", "abs_err", "conjunctive_queries"},
	}
	thresholds := []uint64{20, 45, 80}
	if cfg.Quick {
		thresholds = []uint64{45}
	}
	for _, c := range thresholds {
		truth := 0.0
		for _, pr := range pop.Profiles {
			if salary.Decode(pr.Data) <= c {
				truth++
			}
		}
		truth /= float64(m)
		e, err := est.FieldAtMost(src, salary, c)
		if err != nil {
			return nil, err
		}
		t.AddRow("salary<=c", truth, e.Value, math.Abs(e.Value-truth), e.Queries)
	}
	// Combined: salary mean restricted to age < 40.
	c := uint64(40)
	var truthSum, truthCount float64
	for _, pr := range pop.Profiles {
		if age.Decode(pr.Data) < c {
			truthSum += float64(salary.Decode(pr.Data))
			truthCount++
		}
	}
	e, err := est.ConditionalMeanGivenLessThan(src, salary, age, c)
	if err != nil {
		return nil, err
	}
	truthMean := truthSum / truthCount
	t.AddRow("mean(salary | age<40)", truthMean, e.Value, math.Abs(e.Value-truthMean), e.Queries)
	return t, nil
}

// RunE11 reproduces Appendix E: the a+b < 2^r query from per-bit sketches
// via virtual XOR bits, with its query-count advantage over the naive
// expansion.
func RunE11(cfg Config) (*Table, error) {
	p := 0.25
	m := cfg.Users
	k := 5
	if cfg.Quick {
		k = 4
	}
	a := bitvec.MustIntField(0, k)
	b := bitvec.MustIntField(k, k)
	rng := stats.NewRNG(cfg.Seed + 40)
	pop := &dataset.Population{Width: 2 * k, Profiles: make([]bitvec.Profile, m)}
	for u := 0; u < m; u++ {
		d := bitvec.New(2 * k)
		a.Encode(d, uint64(rng.Intn(1<<uint(k))))
		b.Encode(d, uint64(rng.Intn(1<<uint(k))))
		pop.Profiles[u] = bitvec.Profile{ID: bitvec.UserID(u + 1), Data: d}
	}
	subsets := append(query.FieldBitSubsets(a), query.FieldBitSubsets(b)...)
	tab, est, err := sketchPopulation(pop, subsets, p, 10, cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E11",
		Caption: "Appendix E: Pr[a+b < 2^r] from per-bit sketches",
		Columns: []string{"r", "true", "estimate", "abs_err", "virtual_bit_terms", "naive_conjunctions"},
	}
	for r := 1; r <= k; r++ {
		truth := 0.0
		for _, pr := range pop.Profiles {
			if a.Decode(pr.Data)+b.Decode(pr.Data) < 1<<uint(r) {
				truth++
			}
		}
		truth /= float64(m)
		e, err := est.SumLessThanPow2(tab, a, b, r)
		if err != nil {
			return nil, err
		}
		t.AddRow(r, truth, e.Value, math.Abs(e.Value-truth), e.Queries, query.NaiveSumThresholdQueries(r))
	}
	return t, nil
}

// RunE12 reproduces the Section 4.1 decision-tree and exactly-l-of-k
// queries over the epidemiology workload.
func RunE12(cfg Config) (*Table, error) {
	p := 0.25
	m := cfg.Users
	pop := dataset.Epidemiology(cfg.Seed+50, m, dataset.DefaultEpidemiologyRates())
	tree := query.Node(dataset.EpiSmoker,
		query.Node(dataset.EpiDiabetic, query.Leaf(false), query.Node(dataset.EpiObese, query.Leaf(false), query.Leaf(true))),
		query.Node(dataset.EpiDiabetic, query.Node(dataset.EpiHypertension, query.Leaf(false), query.Leaf(true)), query.Leaf(true)),
	)
	var subsets []bitvec.Subset
	for _, path := range tree.AcceptingPaths() {
		b, _ := path.Split()
		subsets = append(subsets, b)
	}
	riskBits := []int{dataset.EpiSmoker, dataset.EpiDiabetic, dataset.EpiObese, dataset.EpiHypertension}
	for _, pos := range riskBits {
		subsets = append(subsets, bitvec.MustSubset(pos))
	}
	tab, est, err := sketchPopulation(pop, subsets, p, 10, cfg.Seed+51)
	if err != nil {
		return nil, err
	}
	src := est.TableSource(tab)
	t := &Table{
		ID:      "E12",
		Caption: "Decision trees and exactly-l-of-k (epidemiology workload, p=0.25)",
		Columns: []string{"query", "true", "estimate", "abs_err"},
	}
	truthTree := 0.0
	for _, pr := range pop.Profiles {
		if tree.Evaluate(pr.Data) {
			truthTree++
		}
	}
	truthTree /= float64(m)
	e, err := est.DecisionTreeFraction(src, tree)
	if err != nil {
		return nil, err
	}
	t.AddRow("risk decision tree", truthTree, e.Value, math.Abs(e.Value-truthTree))

	// Exactly l of 4 risk factors.
	one := bitvec.MustFromString("1")
	subs := make([]query.SubQuery, len(riskBits))
	for i, pos := range riskBits {
		subs[i] = query.SubQuery{Subset: bitvec.MustSubset(pos), Value: one}
	}
	truthCounts := make([]float64, len(riskBits)+1)
	for _, pr := range pop.Profiles {
		n := 0
		for _, pos := range riskBits {
			if pr.Data.Get(pos) {
				n++
			}
		}
		truthCounts[n]++
	}
	ls := []int{0, 1, 2, 3, 4}
	if cfg.Quick {
		ls = []int{0, 2, 4}
	}
	for _, l := range ls {
		truth := truthCounts[l] / float64(m)
		el, err := est.ExactlyOfK(src, subs, l)
		if err != nil {
			return nil, err
		}
		t.AddRow("exactly "+string(rune('0'+l))+" of 4 risk factors", truth, el.Fraction, math.Abs(el.Fraction-truth))
	}
	return t, nil
}

// RunE13 reproduces Appendix A: the sketch-backed trusted-party mode adds
// O(√M) noise and never runs out of queries, while the SULQ-style paid mode
// adds comparable noise but stops after E² queries.
func RunE13(cfg Config) (*Table, error) {
	p := 0.25
	m := cfg.Users
	pop := dataset.UniformBinary(cfg.Seed+60, m, 4, 0.5)
	subset := bitvec.MustSubset(0, 1)
	v := bitvec.MustFromString("11")
	truth := float64(pop.TrueCount(subset, v))

	h := source(p)
	params := sketch.MustParams(p, 10)
	rng := stats.NewRNG(cfg.Seed + 61)
	noiseScale := math.Sqrt(float64(m)) / 4
	dual, err := engine.NewDualServer(h, params, rng, pop.Profiles, []bitvec.Subset{subset}, noiseScale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E13",
		Caption: "Appendix A: free (sketch) vs paid (output perturbation) modes",
		Columns: []string{"mode", "queries_allowed", "abs_err_on_count", "noise_scale", "sqrtM"},
	}
	free, err := dual.Free.Count(subset, v)
	if err != nil {
		return nil, err
	}
	t.AddRow("free/sketch", "unlimited", math.Abs(free-truth), dual.Free.ExpectedNoise(p), math.Sqrt(float64(m)))
	paid, err := dual.Paid.Count(subset, v)
	if err != nil {
		return nil, err
	}
	t.AddRow("paid/SULQ", dual.Paid.Remaining()+1, math.Abs(paid-truth), noiseScale, math.Sqrt(float64(m)))
	return t, nil
}

// RunE14 reproduces Appendix B: single-bit flipping at p = 1/2 − εc is
// ε-private and its estimator recovers the true fraction.
func RunE14(cfg Config) (*Table, error) {
	m := cfg.Users
	t := &Table{
		ID:      "E14",
		Caption: "Appendix B: single-bit randomized response",
		Columns: []string{"p", "epsilon", "true_frac", "estimate", "abs_err"},
	}
	pop := dataset.UniformBinary(cfg.Seed+70, m, 1, 0.3)
	truth := pop.TrueFraction(bitvec.MustSubset(0), bitvec.MustFromString("1"))
	for _, p := range []float64{0.25, 0.375, 0.45} {
		w, err := baseline.NewWarner(p)
		if err != nil {
			return nil, err
		}
		perturbed := w.PerturbAll(stats.NewRNG(cfg.Seed+71+uint64(p*100)), pop.Profiles)
		est, err := w.EstimateBit(perturbed, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(p, w.Epsilon(), truth, est, math.Abs(est-truth))
	}
	return t, nil
}

// RunE15 reproduces the introduction's partial-knowledge attack: retention
// replacement reveals which of two candidate profiles a user holds, while
// the sketch mechanism's worst-case ratio stays at its analytic bound.
func RunE15(cfg Config) (*Table, error) {
	m := cfg.Users / 5
	if m < 2000 {
		m = 2000
	}
	t := &Table{
		ID:      "E15",
		Caption: "Partial-knowledge attack: retention replacement vs sketches",
		Columns: []string{"mechanism", "parameter", "attacker_success_or_ratio", "sketch_bound"},
	}
	table, truth := dataset.TwoCandidatePopulation(cfg.Seed+80, m)
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		rr, err := baseline.NewRetentionReplacement(rho)
		if err != nil {
			return nil, err
		}
		perturbed := rr.Perturb(stats.NewRNG(cfg.Seed+81), table)
		res, err := rr.PartialKnowledgeAttack(perturbed, dataset.TwoCandidateRows(), truth)
		if err != nil {
			return nil, err
		}
		t.AddRow("retention replacement", rho, res.Correct, "n/a (success probability)")
	}
	// Sketch side: exact worst-case ratio from the auditor, compared with
	// the Lemma 3.3 bound — an attacker's posterior can move only by this
	// factor no matter what they know.
	p := 0.3
	rep, err := privacy.AuditSketch(source(p), sketch.MustParams(p, 5), 7, bitvec.Range(0, 3))
	if err != nil {
		return nil, err
	}
	t.AddRow("pseudorandom sketch", p, rep.WorstRatio, rep.Bound)
	return t, nil
}

// RunE16 reproduces the size claim: a sketch is ⌈log log O(M)⌉ bits,
// versus q bits for randomized response and 2^k bits for the
// indicator-vector construction of Figure 1.
func RunE16(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Caption: "Published size per user per subset",
		Columns: []string{"k (subset bits)", "M", "sketch_bits", "sketch_wire_bytes", "randomized_response_bits", "indicator_vector_bits"},
	}
	ks := []int{4, 8, 16, 32}
	if cfg.Quick {
		ks = []int{4, 16}
	}
	for _, k := range ks {
		for _, m := range []int{100000, 1000000} {
			l, err := sketch.MinLength(0.3, m, 1e-6)
			if err != nil {
				return nil, err
			}
			pub := sketch.Published{ID: 1, Subset: bitvec.Range(0, k), S: sketch.Sketch{Key: 1, Length: l}}
			t.AddRow(k, m, l, wire.PublishedWireSize(pub), k, math.Pow(2, float64(k)))
		}
	}
	return t, nil
}
