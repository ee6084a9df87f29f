package query

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/sketch"
)

// planTestFixture builds one table carrying every subset family the
// estimators need — a conjunctive subset, single-bit and prefix subsets of
// two 4-bit fields, and both full-field subsets — and returns the batched
// table source over it beside the scalar oracle over the same table.
func planTestFixture(t *testing.T) (*Estimator, PartialSource, PartialSource, bitvec.IntField, bitvec.IntField) {
	t.Helper()
	const p, width = 0.3, 8
	pop := dataset.UniformBinary(21, 2500, width, 0.45)
	fa := bitvec.MustIntField(0, 4)
	fb := bitvec.MustIntField(4, 4)
	subsets := []bitvec.Subset{bitvec.Range(0, 4)}
	subsets = append(subsets, FieldBitSubsets(fa)...)
	subsets = append(subsets, FieldPrefixSubsets(fa)...)
	subsets = append(subsets, FieldBitSubsets(fb)...)
	subsets = append(subsets, FieldPrefixSubsets(fb)...)
	subsets = append(subsets, fb.FullSubset())
	tab, est := buildTable(t, pop, dedupSubsets(subsets), p, 10, 13)
	return est, est.TableSource(tab), oracleOver(est, nil, tab), fa, fb
}

// dedupSubsets drops duplicate subsets (prefix 1 equals bit 1, the full
// subset equals the widest prefix) so buildTable never double-sketches.
func dedupSubsets(subsets []bitvec.Subset) []bitvec.Subset {
	seen := make(map[string]bool)
	out := subsets[:0]
	for _, b := range subsets {
		if seen[b.Key()] {
			continue
		}
		seen[b.Key()] = true
		out = append(out, b)
	}
	return out
}

// TestPlanPathBitIdenticalToPerCall is the read path's golden test: every
// estimator answered through the one-pass batched executor equals the
// oracle's one scalar Evaluate call per record and entry bit for bit,
// numeric edge cases included.
func TestPlanPathBitIdenticalToPerCall(t *testing.T) {
	est, batch, oracle, fa, fb := planTestFixture(t)
	conjSubset := bitvec.Range(0, 4)
	conjValue := bitvec.MustFromString("1010")
	subs := []SubQuery{
		{Subset: fa.BitSubset(1), Value: oneBit()},
		{Subset: fa.BitSubset(2), Value: oneBit()},
		{Subset: fb.BitSubset(1), Value: oneBit()},
	}
	tree := Node(0, Leaf(false), Node(5, Leaf(true), Leaf(true)))

	type estCase struct {
		name string
		run  func(src PartialSource) (any, error)
	}
	cases := []estCase{
		{"Fraction", func(s PartialSource) (any, error) { return est.Fraction(s, conjSubset, conjValue) }},
		{"UnionConjunction", func(s PartialSource) (any, error) { return est.UnionConjunction(s, subs) }},
		{"UnionConjunction1", func(s PartialSource) (any, error) { return est.UnionConjunction(s, subs[:1]) }},
		{"ExactlyOfK", func(s PartialSource) (any, error) { return est.ExactlyOfK(s, subs, 2) }},
		{"AtLeastOfK", func(s PartialSource) (any, error) { return est.AtLeastOfK(s, subs, 1) }},
		{"NoneOf", func(s PartialSource) (any, error) { return est.NoneOf(s, subs) }},
		{"ConjunctionExact", func(s PartialSource) (any, error) {
			return est.ConjunctionFraction(s, bitvec.MustConjunction(
				bitvec.Literal{Position: 0, Value: true}, bitvec.Literal{Position: 1, Value: false},
				bitvec.Literal{Position: 2, Value: true}, bitvec.Literal{Position: 3, Value: false}))
		}},
		{"ConjunctionGlued", func(s PartialSource) (any, error) {
			// {0,5} was never sketched as a subset: exercises the
			// ErrNoSketches fallback onto Appendix F gluing.
			return est.ConjunctionFraction(s, bitvec.MustConjunction(
				bitvec.Literal{Position: 0, Value: true}, bitvec.Literal{Position: 5, Value: true}))
		}},
		{"FieldMean", func(s PartialSource) (any, error) { return est.FieldMean(s, fa) }},
		{"FieldSum", func(s PartialSource) (any, error) { return est.FieldSum(s, fa) }},
		{"FieldLessThan", func(s PartialSource) (any, error) { return est.FieldLessThan(s, fa, 11) }},
		{"FieldLessThanZero", func(s PartialSource) (any, error) { return est.FieldLessThan(s, fa, 0) }},
		{"FieldLessThanAll", func(s PartialSource) (any, error) { return est.FieldLessThan(s, fa, fa.Max()+1) }},
		{"FieldAtMost", func(s PartialSource) (any, error) { return est.FieldAtMost(s, fb, 9) }},
		{"FieldAtMostAll", func(s PartialSource) (any, error) { return est.FieldAtMost(s, fb, fb.Max()) }},
		{"InnerProductMean", func(s PartialSource) (any, error) { return est.InnerProductMean(s, fa, fb) }},
		{"EqualAndLessThan", func(s PartialSource) (any, error) { return est.EqualAndLessThan(s, fb, 6, fa, 13) }},
		{"ConditionalSum", func(s PartialSource) (any, error) { return est.ConditionalSumGivenLessThan(s, fb, fa, 10) }},
		{"ConditionalMean", func(s PartialSource) (any, error) { return est.ConditionalMeanGivenLessThan(s, fb, fa, 10) }},
		{"DecisionTree", func(s PartialSource) (any, error) { return est.DecisionTreeFraction(s, tree) }},
		{"DecisionTreeAllAccept", func(s PartialSource) (any, error) { return est.DecisionTreeFraction(s, Leaf(true)) }},
		{"MatchDistribution", func(s PartialSource) (any, error) {
			x, users, err := est.MatchDistribution(s, subs)
			return struct {
				X     []float64
				Users int
			}{x, users}, err
		}},
	}
	for _, tc := range cases {
		want, wantErr := tc.run(oracle)
		got, gotErr := tc.run(batch)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: oracle err %v, plan err %v", tc.name, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: error text differs:\noracle %v\nplan   %v", tc.name, wantErr, gotErr)
			}
			continue
		}
		if !sameResult(want, got) {
			t.Fatalf("%s: plan path differs from the oracle:\noracle %+v\nplan   %+v", tc.name, want, got)
		}
	}
}

// sameResult compares estimator outputs bit for bit, tolerating the NaN
// Observed field the combination estimators report (NaN != NaN under
// reflect.DeepEqual).
func sameResult(a, b any) bool {
	if ea, ok := a.(Estimate); ok {
		eb, ok := b.(Estimate)
		return ok && sameEstimate(ea, eb)
	}
	return reflect.DeepEqual(a, b)
}

// TestPlanErrorEquivalence pins the error contract of the plan path onto
// the oracle's, including errors that surface before execution.
func TestPlanErrorEquivalence(t *testing.T) {
	est, batch, oracle, fa, _ := planTestFixture(t)
	missing := bitvec.MustIntField(2, 4) // prefix subsets of this field were never sketched
	cases := []struct {
		name string
		run  func(src PartialSource) error
	}{
		{"NoSketches", func(s PartialSource) error {
			_, err := est.Fraction(s, bitvec.MustSubset(9), oneBit())
			return err
		}},
		{"ShapeMismatch", func(s PartialSource) error {
			_, err := est.Fraction(s, bitvec.Range(0, 4), oneBit())
			return err
		}},
		{"EmptySubset", func(s PartialSource) error {
			_, err := est.Fraction(s, bitvec.Subset{}, bitvec.New(0))
			return err
		}},
		{"IntervalMissingPrefix", func(s PartialSource) error {
			_, err := est.FieldLessThan(s, missing, 9)
			return err
		}},
		{"ExactlyBounds", func(s PartialSource) error {
			_, err := est.ExactlyOfK(s, []SubQuery{{Subset: fa.BitSubset(1), Value: oneBit()}}, 5)
			return err
		}},
		{"NoSubQueries", func(s PartialSource) error {
			_, err := est.UnionConjunction(s, nil)
			return err
		}},
	}
	for _, tc := range cases {
		wantErr := tc.run(oracle)
		gotErr := tc.run(batch)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("%s: expected errors, got oracle %v, plan %v", tc.name, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text differs:\noracle %v\nplan   %v", tc.name, wantErr, gotErr)
		}
	}
	// ErrNoSketches identity must survive the plan path so callers'
	// errors.Is checks (and the conjunction fallback) keep working.
	if _, err := est.Fraction(batch, bitvec.MustSubset(9), oneBit()); !errors.Is(err, ErrNoSketches) {
		t.Fatalf("plan path lost ErrNoSketches identity: %v", err)
	}
}

// TestPlanDedup verifies that identical evaluations collapse to one plan
// entry and re-adding returns the original ref.
func TestPlanDedup(t *testing.T) {
	p := NewPlan()
	b := bitvec.Range(0, 4)
	v := bitvec.MustFromString("1010")
	r1, err := p.AddFraction(b, v)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.AddFraction(bitvec.Range(0, 4), bitvec.MustFromString("1010"))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || len(p.Fractions()) != 1 {
		t.Fatalf("identical fractions not deduped: refs %d,%d over %d entries", r1, r2, len(p.Fractions()))
	}
	subs := []SubQuery{{Subset: b, Value: v}, {Subset: bitvec.MustSubset(1), Value: oneBit()}}
	h1, err := p.AddHistogram(subs)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.AddHistogram([]SubQuery{{Subset: b, Value: v}, {Subset: bitvec.MustSubset(1), Value: oneBit()}})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(p.Histograms()) != 1 {
		t.Fatalf("identical histograms not deduped")
	}
	if c1, c2 := p.AddSubsetRecords(b), p.AddSubsetRecords(b); c1 != c2 || len(p.CountSubsets()) != 1 {
		t.Fatalf("identical counts not deduped")
	}
	// An interval query's prefix entries overlap across constants: the
	// shared prefixes of c=12 (1100) and c=8 (1000) must share an entry.
	fa := bitvec.MustIntField(0, 4)
	est, err := NewEstimator(testSource(0.3))
	if err != nil {
		t.Fatal(err)
	}
	shared := NewPlan()
	if _, err := est.PlanFieldLessThan(shared, fa, 12); err != nil {
		t.Fatal(err)
	}
	before := len(shared.Fractions())
	if _, err := est.PlanFieldLessThan(shared, fa, 8); err != nil {
		t.Fatal(err)
	}
	if got := len(shared.Fractions()); got != before {
		t.Fatalf("overlapping interval prefixes did not dedup: %d entries grew to %d", before, got)
	}
}

// TestPlanFilteredExecutionMatchesSerial checks the ownership-filtered
// executor path (the cluster node side) against the serial oracle under
// the same filter.
func TestPlanFilteredExecutionMatchesSerial(t *testing.T) {
	const p, width = 0.3, 6
	pop := dataset.UniformBinary(5, 1500, width, 0.5)
	fa := bitvec.MustIntField(0, 4)
	subsets := append([]bitvec.Subset{bitvec.Range(0, 3)}, FieldBitSubsets(fa)...)
	tab, est := buildTable(t, pop, dedupSubsets(subsets), p, 10, 3)
	keep := &UserFilter{Keep: func(id bitvec.UserID) bool { return uint64(id)%3 != 0 }}

	plan := NewPlan()
	if _, err := est.PlanFieldMean(plan, fa); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.AddFraction(bitvec.Range(0, 3), bitvec.MustFromString("101")); err != nil {
		t.Fatal(err)
	}
	plan.AddSubsetRecords(fa.BitSubset(2))
	plan.AddTotalRecords()

	got, err := est.ExecutePlanOver(tab, plan, keep, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleOver(est, keep, tab).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("filtered plan execution differs:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestKeepMaskRetiredByEqualSizedWrite: a write that adds only users the
// filter drops leaves the filtered subset as long as it was, and still
// retires its cached keep mask — a mask holds a bit per record of the
// subset, and the generation versions it.
func TestKeepMaskRetiredByEqualSizedWrite(t *testing.T) {
	pop := dataset.UniformBinary(8, 300, 4, 0.5)
	subset := bitvec.Range(0, 3)
	tab, est := buildTable(t, pop, []bitvec.Subset{subset}, 0.3, 10, 4)
	plan := NewPlan()
	if _, err := plan.AddFraction(subset, bitvec.MustFromString("011")); err != nil {
		t.Fatal(err)
	}
	plan.AddSubsetRecords(subset)
	keep := &UserFilter{Keep: func(id bitvec.UserID) bool { return id%2 == 0 }, Key: "even"}
	cache := mapCache{}
	check := func(stage string) {
		t.Helper()
		want, err := oracleOver(est, keep, tab).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			got, err := est.ExecutePlanOver(tab, plan, keep, cache)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s, run %d: cached execution %+v, oracle %+v", stage, run, got, want)
			}
		}
	}
	check("before the writes")
	// Three users the filter drops arrive: the kept users are the same as
	// before, the subset three records longer.
	view, _ := tab.View(subset)
	kept := func(v sketch.View) (n int) {
		for i := 0; i < v.Len(); i++ {
			if keep.Keep(v.ID(i)) {
				n++
			}
		}
		return n
	}
	added := 0
	for id := view.ID(0) + 1; added < 3; id++ {
		if _, held := tab.Get(id, subset); held || keep.Keep(id) {
			continue
		}
		if err := tab.Add(sketch.Published{ID: id, Subset: subset, S: view.Sketch(added)}); err != nil {
			t.Fatal(err)
		}
		added++
	}
	if after, _ := tab.View(subset); kept(after) != kept(view) || after.Len() != view.Len()+added {
		t.Fatalf("the writes changed the kept users: %d → %d of %d → %d", kept(view), kept(after), view.Len(), after.Len())
	}
	check("after a write of dropped users only")
}

// TestGuardedHistogramSkipped pins the guarded-fallback optimization: a
// conjunction whose exact subset is sketched must not pay for its gluing
// histogram (the entry stays unevaluated), while the answer and the
// unsketched-fallback behavior stay bit-identical to the oracle.
func TestGuardedHistogramSkipped(t *testing.T) {
	est, src, oracle, fa, _ := planTestFixture(t)
	exact := bitvec.MustConjunction(
		bitvec.Literal{Position: 0, Value: true}, bitvec.Literal{Position: 1, Value: false},
		bitvec.Literal{Position: 2, Value: true}, bitvec.Literal{Position: 3, Value: false})

	plan := NewPlan()
	fin, err := est.PlanConjunctionFraction(plan, exact)
	if err != nil {
		t.Fatal(err)
	}
	hists := plan.Histograms()
	if len(hists) != 1 || !hists[0].GuardValid {
		t.Fatalf("exact conjunction should register one guarded fallback histogram, got %+v", hists)
	}
	res, err := src.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fractions[hists[0].Guard].Records == 0 {
		t.Fatal("fixture does not sketch the exact subset; the guard cannot fire")
	}
	if hp := res.Hists[0]; hp.Users != 0 || hp.Hist != nil {
		t.Fatalf("guarded histogram was evaluated despite its guard firing: %+v", hp)
	}
	got, err := fin(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.ConjunctionFraction(oracle, exact)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(want, got) {
		t.Fatalf("guarded plan answer %+v differs from the oracle %+v", got, want)
	}
	// Invalid guard refs are rejected at build time.
	if _, err := NewPlan().AddHistogramGuarded([]SubQuery{{Subset: fa.BitSubset(1), Value: oneBit()}}, 0); err == nil {
		t.Fatal("guard pointing at a non-existent fraction entry accepted")
	}
}

// TestHistogramUnderConcurrentAdd pins that a histogram entry is answered
// from one consistent state of the table: while a writer adds users to the
// second subset in a fixed order — each in the middle of the id order,
// between two it holds — every answer is the histogram of the table after
// some prefix of that order, never a user torn between two states.
func TestHistogramUnderConcurrentAdd(t *testing.T) {
	const users = 20000
	est, err := NewEstimator(testSource(0.3))
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := bitvec.MustSubset(0), bitvec.MustSubset(1)
	tab := sketch.NewTable()
	rec := func(id int, b bitvec.Subset) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: uint64(id % 1024), Length: 10}}
	}
	// b1 holds every user and b2 the even ones; the writer adds the odd ones
	// to b2, ascending.  prefix[k] is the histogram after its first k adds.
	bin := func(id int) (n int) {
		for _, b := range []bitvec.Subset{b1, b2} {
			if sketch.Evaluate(est.h, bitvec.UserID(id), b, oneBit(), rec(id, b).S) {
				n++
			}
		}
		return n
	}
	prefix := [][]uint64{make([]uint64, 3)}
	for id := 0; id < users; id++ {
		if err := tab.Add(rec(id, b1)); err != nil {
			t.Fatal(err)
		}
		if id%2 == 0 {
			if err := tab.Add(rec(id, b2)); err != nil {
				t.Fatal(err)
			}
			prefix[0][bin(id)]++
		}
	}
	for id := 1; id < users; id += 2 {
		next := slices.Clone(prefix[len(prefix)-1])
		next[bin(id)]++
		prefix = append(prefix, next)
	}
	plan := NewPlan()
	ref, err := plan.AddHistogram([]SubQuery{{Subset: b1, Value: oneBit()}, {Subset: b2, Value: oneBit()}})
	if err != nil {
		t.Fatal(err)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for id := 1; id < users; id += 2 {
			select {
			case <-stop:
				return
			default:
			}
			if err := tab.Add(rec(id, b2)); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for try := 0; try < 50; try++ {
		res, err := est.ExecutePlanOver(tab, plan, nil, nil)
		if err != nil {
			t.Errorf("try %d: %v", try, err)
			break
		}
		hp := res.Histogram(ref)
		if k := int(hp.Users) - users/2; k < 0 || k >= len(prefix) || !slices.Equal(hp.Hist, prefix[k]) {
			t.Errorf("try %d: histogram %v over %d users is not the histogram of a prefix of the writes", try, hp.Hist, hp.Users)
			break
		}
	}
	close(stop)
	<-done
}
