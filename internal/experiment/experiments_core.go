package experiment

import (
	"errors"
	"math"

	"sketchprivacy/internal/baseline"
	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/privacy"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// RunE1 reproduces the Figure 1 intuition: for a 3-bit subset, the sketch
// mechanism induces exactly the biases the exponential indicator-vector
// mechanism would — probability 1−p of a hit at the user's true value and
// p at each of the other 7 values — and Algorithm 2 recovers the frequency
// of every value.
func RunE1(cfg Config) (*Table, error) {
	p := 0.3
	m := cfg.Users
	if cfg.Quick {
		m = cfg.Users / 2
	}
	b := bitvec.Range(0, 3)
	pop := dataset.UniformBinary(cfg.Seed, m, 3, 0.5)
	tab, est, err := sketchPopulation(pop, []bitvec.Subset{b}, p, 10, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	src := est.TableSource(tab)
	t := &Table{
		ID:      "E1",
		Caption: "8 values of a 3-bit subset: estimated vs true frequency (p=0.3)",
		Columns: []string{"value", "true_freq", "est_freq", "abs_err"},
	}
	for x := uint64(0); x < 8; x++ {
		v := bitvec.FromUint(x, 3)
		truth := pop.TrueFraction(b, v)
		e, err := est.Fraction(src, b, v)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.String(), truth, e.Fraction, math.Abs(e.Fraction-truth))
	}
	return t, nil
}

// RunE2 reproduces Lemma 3.1: the prescribed sketch length keeps the
// failure probability below τ, and a 10-bit sketch covers any practical
// population once p > 1/4.
func RunE2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Caption: "Lemma 3.1 length bound and observed failure rates",
		Columns: []string{"p", "M", "tau", "length_bits", "bound_per_pop", "observed_failures", "trials"},
	}
	ps := []float64{0.26, 0.3, 0.4, 0.45}
	ms := []int{1000, 100000, 10000000}
	if cfg.Quick {
		ps = []float64{0.3, 0.45}
		ms = []int{1000, 100000}
	}
	for _, p := range ps {
		for _, m := range ms {
			tau := 1e-6
			l, err := sketch.MinLength(p, m, tau)
			if err != nil {
				return nil, err
			}
			params := sketch.MustParams(p, l)
			// Observe failures empirically with a deliberately small trial
			// count relative to the bound (failures should be absent).
			trials := 20000
			if cfg.Quick {
				trials = 4000
			}
			h := source(p)
			sk, err := sketch.NewSketcher(h, params)
			if err != nil {
				return nil, err
			}
			rng := stats.NewRNG(cfg.Seed + uint64(m))
			failures := 0
			profile := bitvec.Profile{ID: 1, Data: bitvec.MustFromString("1")}
			for i := 0; i < trials; i++ {
				profile.ID = bitvec.UserID(i + 1)
				if _, err := sk.Sketch(rng, profile, bitvec.MustSubset(0)); errors.Is(err, sketch.ErrExhausted) {
					failures++
				}
			}
			t.AddRow(p, m, tau, l, params.FailureProb()*float64(m), failures, trials)
		}
	}
	return t, nil
}

// RunE3 reproduces the running-time remark: the expected number of
// iterations of Algorithm 1 is below (1−p)/p (and a fortiori below the
// paper's (1−p)²/p²), independent of the population size.
func RunE3(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Caption: "Algorithm 1 iterations per sketch",
		Columns: []string{"p", "mean_iters", "p95_iters", "max_iters", "bound_(1-p)/p", "paper_bound"},
	}
	trials := 20000
	if cfg.Quick {
		trials = 5000
	}
	for _, p := range []float64{0.26, 0.3, 0.4, 0.45} {
		params := sketch.MustParams(p, 12)
		h := source(p)
		sk, err := sketch.NewSketcher(h, params)
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(cfg.Seed + uint64(p*1000))
		var iters []float64
		var m stats.Moments
		for i := 0; i < trials; i++ {
			profile := bitvec.Profile{ID: bitvec.UserID(i + 1), Data: bitvec.MustFromString("10")}
			res, err := sk.SketchDetailed(rng, profile, bitvec.MustSubset(0, 1))
			if err != nil {
				return nil, err
			}
			m.Add(float64(res.Iterations))
			iters = append(iters, float64(res.Iterations))
		}
		paperBound := (1 - p) * (1 - p) / (p * p)
		t.AddRow(p, m.Mean(), stats.Quantile(iters, 0.95), m.Max(), params.ExpectedIterations(), paperBound)
	}
	return t, nil
}

// RunE4 reproduces Lemma 3.2 directly: conditioned on publishing, the
// public function evaluates to 1 at the true value with probability 1−p and
// at any other value with probability p.
func RunE4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Caption: "Published-sketch biases (Lemma 3.2)",
		Columns: []string{"p", "Pr[H=1 at true value]", "want", "Pr[H=1 elsewhere]", "want_other"},
	}
	trials := 30000
	if cfg.Quick {
		trials = 8000
	}
	b := bitvec.MustSubset(0, 2, 4)
	trueVal := bitvec.MustFromString("101")
	otherVal := bitvec.MustFromString("010")
	for _, p := range []float64{0.3, 0.4, 0.45} {
		h := source(p)
		sk, err := sketch.NewSketcher(h, sketch.MustParams(p, 10))
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(cfg.Seed + uint64(p*100))
		hitsTrue, hitsOther := 0, 0
		for i := 0; i < trials; i++ {
			d := bitvec.New(6)
			d.Set(0, true)
			d.Set(4, true)
			profile := bitvec.Profile{ID: bitvec.UserID(i + 1), Data: d}
			s, err := sk.Sketch(rng, profile, b)
			if err != nil {
				return nil, err
			}
			if sketch.Evaluate(h, profile.ID, b, trueVal, s) {
				hitsTrue++
			}
			if sketch.Evaluate(h, profile.ID, b, otherVal, s) {
				hitsOther++
			}
		}
		t.AddRow(p, float64(hitsTrue)/float64(trials), 1-p, float64(hitsOther)/float64(trials), p)
	}
	return t, nil
}

// RunE5 reproduces Lemma 3.3 and Corollary 3.4: the exact worst-case
// likelihood ratio of the sketch mechanism never exceeds ((1−p)/p)⁴, for
// the PRF-backed H and for truly random oracles, and the Corollary 3.4
// bias keeps the l-sketch ε near its target.
func RunE5(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Caption: "Worst-case likelihood ratios vs the Lemma 3.3 bound",
		Columns: []string{"p", "subset_bits", "source", "worst_ratio", "bound", "holds"},
	}
	subsets := []bitvec.Subset{bitvec.Range(0, 2), bitvec.Range(0, 4)}
	if cfg.Quick {
		subsets = subsets[:1]
	}
	for _, p := range []float64{0.3, 0.4, 0.45} {
		params := sketch.MustParams(p, 5)
		for _, b := range subsets {
			for _, src := range []struct {
				name string
				h    prf.BitSource
			}{
				{"sha256-prf", source(p)},
				{"random-oracle", prf.NewOracle(cfg.Seed, prf.MustProb(p))},
			} {
				rep, err := privacy.AuditSketch(src.h, params, 424242, b)
				if err != nil {
					return nil, err
				}
				t.AddRow(p, b.Len(), src.name, rep.WorstRatio, rep.Bound, rep.Satisfied())
			}
		}
	}
	// Corollary 3.4 budget check.
	t2rows := []int{1, 4, 16}
	for _, l := range t2rows {
		p, err := sketch.BiasForBudget(0.2, l)
		if err != nil {
			return nil, err
		}
		eps, err := privacy.SketchEpsilon(p, l)
		if err != nil {
			return nil, err
		}
		t.AddRow(p, l, "corollary-3.4 (target eps=0.2)", 1+eps, 1.2*1.11, eps <= 0.23)
	}
	return t, nil
}

// RunE6 reproduces Lemma 4.1: the conjunctive-query error shrinks as 1/√M
// and is flat in the number of attributes k.
func RunE6(cfg Config) (*Table, error) {
	p := 0.25
	t := &Table{
		ID:      "E6",
		Caption: "Conjunctive-query error vs population size and subset size (p=0.25)",
		Columns: []string{"sweep", "M", "k", "mae", "max_err", "lemma4.1_radius(δ=0.05)"},
	}
	ms := []int{cfg.Users / 10, cfg.Users, cfg.Users * 4}
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	queriesPer := 8
	if cfg.Quick {
		ms = []int{cfg.Users / 4, cfg.Users}
		ks = []int{1, 4, 16}
		queriesPer = 4
	}
	run := func(m, k int, seed uint64) (mae, maxErr float64, err error) {
		b := bitvec.Range(0, k)
		v := bitvec.New(k)
		for i := 0; i < k; i += 2 {
			v.Set(i, true)
		}
		var summary stats.ErrorSummary
		for q := 0; q < queriesPer; q++ {
			freq := 0.1 + 0.8*float64(q)/float64(queriesPer)
			pop, err := dataset.PlantedConjunction(seed+uint64(q), m, k+2, b, v, freq, 0.5)
			if err != nil {
				return 0, 0, err
			}
			tab, est, err := sketchPopulation(pop, []bitvec.Subset{b}, p, 10, seed+uint64(q)+77)
			if err != nil {
				return 0, 0, err
			}
			e, err := est.Fraction(est.TableSource(tab), b, v)
			if err != nil {
				return 0, 0, err
			}
			summary.Observe(e.Fraction, pop.TrueFraction(b, v))
		}
		return summary.MAE(), summary.MaxAbs(), nil
	}
	// Sweep M at fixed k.
	for _, m := range ms {
		mae, maxErr, err := run(m, 4, cfg.Seed+uint64(m))
		if err != nil {
			return nil, err
		}
		t.AddRow("vary M", m, 4, mae, maxErr, stats.ErrorRadius(0.05, p, m))
	}
	// Sweep k at fixed M.
	for _, k := range ks {
		mae, maxErr, err := run(cfg.Users, k, cfg.Seed+uint64(1000+k))
		if err != nil {
			return nil, err
		}
		t.AddRow("vary k", cfg.Users, k, mae, maxErr, stats.ErrorRadius(0.05, p, cfg.Users))
	}
	return t, nil
}

// RunE7 reproduces the introduction's comparison: sketches answer long
// conjunctions with flat error, while randomized-response style mechanisms
// degrade exponentially with the conjunction size at comparable per-bit
// parameters.
func RunE7(cfg Config) (*Table, error) {
	p := 0.3
	m := cfg.Users
	ks := []int{1, 2, 4, 6, 8, 10, 12}
	if cfg.Quick {
		ks = []int{1, 4, 8}
	}
	t := &Table{
		ID:      "E7",
		Caption: "Absolute error of itemset-frequency estimates vs itemset size (M users, p=0.3)",
		Columns: []string{"k", "sketch_err", "warner_err", "evfimievski_err", "warner_stderr_bound", "evf_stderr_bound"},
	}
	maxK := ks[len(ks)-1]
	width := maxK + 2
	// One population reused across mechanisms: moderately dense so that a
	// size-k itemset retains measurable support.
	pop := dataset.UniformBinary(cfg.Seed+5, m, width, 0.8)

	// Sketch side: sketch each prefix subset once.
	subsets := make([]bitvec.Subset, len(ks))
	for i, k := range ks {
		subsets[i] = bitvec.Range(0, k)
	}
	tab, est, err := sketchPopulation(pop, subsets, p, 10, cfg.Seed+6)
	if err != nil {
		return nil, err
	}
	src := est.TableSource(tab)

	// Warner side.
	w, err := baseline.NewWarner(p)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed + 7)
	flipped := w.PerturbAll(rng, pop.Profiles)

	// Evfimievski side, parameterized for a comparable per-item ε.
	ir, err := baseline.NewItemRandomizer(0.7, 0.3)
	if err != nil {
		return nil, err
	}
	randomized := ir.PerturbAll(stats.NewRNG(cfg.Seed+8), pop.Profiles)

	for i, k := range ks {
		b := subsets[i]
		v := bitvec.New(k)
		for j := 0; j < k; j++ {
			v.Set(j, true)
		}
		truth := pop.TrueFraction(b, v)
		se, err := est.Fraction(src, b, v)
		if err != nil {
			return nil, err
		}
		we, err := w.EstimateConjunction(flipped, b, v)
		if err != nil {
			return nil, err
		}
		items := b.Positions()
		ee, err := ir.EstimateItemsetSupport(randomized, items)
		if err != nil {
			return nil, err
		}
		t.AddRow(k,
			math.Abs(se.Fraction-truth),
			math.Abs(we-truth),
			math.Abs(ee-truth),
			w.ConjunctionStdDev(k, m),
			ir.SupportStdDev(k, m))
	}
	return t, nil
}

// RunE8 reproduces Appendix F: gluing per-subset sketches through the
// perturbation matrix recovers union conjunctions, and the matrix's
// condition number explodes with k, faster the closer p is to 1/2.
func RunE8(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Caption: "Appendix F: combination accuracy and matrix conditioning",
		Columns: []string{"row", "k", "p", "value", "note"},
	}
	// Conditioning sweep.
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ps := []float64{0.30, 0.35, 0.40, 0.45}
	if cfg.Quick {
		ks = []int{1, 2, 4, 6, 8}
		ps = []float64{0.30, 0.45}
	}
	for _, p := range ps {
		for _, k := range ks {
			t.AddRow("cond1(V)", k, p, query.Conditioning(k, p), "grows ~((1)/(1-2p))^k")
		}
	}
	// Combination accuracy: q=4 single-bit subsets glued into a 4-bit
	// conjunction.
	p := 0.25
	m := cfg.Users
	pop := dataset.UniformBinary(cfg.Seed+9, m, 4, 0.6)
	subsets := []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(1), bitvec.MustSubset(2), bitvec.MustSubset(3)}
	tab, est, err := sketchPopulation(pop, subsets, p, 10, cfg.Seed+10)
	if err != nil {
		return nil, err
	}
	src := est.TableSource(tab)
	one := bitvec.MustFromString("1")
	subs := make([]query.SubQuery, 4)
	for i := range subs {
		subs[i] = query.SubQuery{Subset: subsets[i], Value: one}
	}
	truth := pop.TrueFraction(bitvec.Range(0, 4), bitvec.MustFromString("1111"))
	e, err := est.UnionConjunction(src, subs)
	if err != nil {
		return nil, err
	}
	t.AddRow("union-conjunction abs err", 4, p, math.Abs(e.Fraction-truth), "glued from 4 single-bit sketches")
	// Ablation: sketching the union directly avoids the conditioning
	// penalty.
	tabU, estU, err := sketchPopulation(pop, []bitvec.Subset{bitvec.Range(0, 4)}, p, 10, cfg.Seed+11)
	if err != nil {
		return nil, err
	}
	direct, err := estU.Fraction(estU.TableSource(tabU), bitvec.Range(0, 4), bitvec.MustFromString("1111"))
	if err != nil {
		return nil, err
	}
	t.AddRow("direct-subset abs err", 4, p, math.Abs(direct.Fraction-truth), "single sketch of the union (ablation)")
	return t, nil
}
