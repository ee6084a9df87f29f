package query

import (
	"math"
	"reflect"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/sketch"
)

// sameEstimate compares estimates bit for bit (Observed is NaN for the
// combination estimators, so == alone cannot be used).
func sameEstimate(a, b Estimate) bool {
	obs := a.Observed == b.Observed || (math.IsNaN(a.Observed) && math.IsNaN(b.Observed))
	return a.Fraction == b.Fraction && a.Raw == b.Raw && obs && a.Users == b.Users && a.P == b.P
}

// splitTable partitions a table's records into n shards by user id.
func splitTable(t *testing.T, tab *sketch.Table, n int) []*sketch.Table {
	t.Helper()
	shards := make([]*sketch.Table, n)
	for i := range shards {
		shards[i] = sketch.NewTable()
	}
	for _, b := range tab.Subsets() {
		for _, p := range tab.Snapshot(b) {
			if err := shards[uint64(p.ID)%uint64(n)].Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return shards
}

// TestMergedPartialsBitIdentical proves the linearity claim the cluster
// rests on: every estimator answered from merged shard partials equals the
// single-table answer bit for bit.
func TestMergedPartialsBitIdentical(t *testing.T) {
	const p, width = 0.3, 8
	pop := dataset.UniformBinary(11, 3000, width, 0.4)
	field := bitvec.MustIntField(0, 4)
	subsets := []bitvec.Subset{bitvec.Range(0, 4)}
	subsets = append(subsets, FieldBitSubsets(field)...)
	tab, est := buildTable(t, pop, subsets, p, 10, 7)
	// The cluster router, modelled in-process with no networking: the
	// scalar oracle answering each of three disjoint shards and merging.
	src := oracleOver(est, nil, splitTable(t, tab, 3)...)
	whole := est.TableSource(tab)

	conjSubset := bitvec.Range(0, 4)
	conjValue := bitvec.MustFromString("1010")
	want, err := est.Fraction(whole, conjSubset, conjValue)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Fraction(src, conjSubset, conjValue)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(want, got) {
		t.Fatalf("merged Fraction differs: %+v vs %+v", want, got)
	}

	wantMean, err := est.FieldMean(whole, field)
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := est.FieldMean(src, field)
	if err != nil {
		t.Fatal(err)
	}
	if wantMean != gotMean {
		t.Fatalf("merged FieldMean differs: %+v vs %+v", wantMean, gotMean)
	}

	subs := []SubQuery{
		{Subset: field.BitSubset(1), Value: bitvec.MustFromString("1")},
		{Subset: field.BitSubset(2), Value: bitvec.MustFromString("1")},
	}
	wantU, err := est.UnionConjunction(whole, subs)
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := est.UnionConjunction(src, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(wantU, gotU) {
		t.Fatalf("merged UnionConjunction differs: %+v vs %+v", wantU, gotU)
	}

	wantX, err := est.ExactlyOfK(whole, subs, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotX, err := est.ExactlyOfK(src, subs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(wantX, gotX) {
		t.Fatalf("merged ExactlyOfK differs: %+v vs %+v", wantX, gotX)
	}

	wantN, err := src.TotalRecords()
	if err != nil {
		t.Fatal(err)
	}
	if wantN != uint64(tab.Len()) {
		t.Fatalf("merged TotalRecords %d, want %d", wantN, tab.Len())
	}
}

// TestUserFilterPartitionExactness: counters computed under a partition of
// user filters merge to the unfiltered counters, and each part is what the
// scalar oracle counts under the same filter.
func TestUserFilterPartitionExactness(t *testing.T) {
	const p, width = 0.3, 6
	pop := dataset.UniformBinary(3, 2000, width, 0.5)
	subset := bitvec.Range(0, 3)
	tab, est := buildTable(t, pop, []bitvec.Subset{subset}, p, 10, 9)
	plan := NewPlan()
	ref, err := plan.AddFraction(subset, bitvec.MustFromString("110"))
	if err != nil {
		t.Fatal(err)
	}
	count := plan.AddSubsetRecords(subset)

	whole, err := est.ExecutePlanOver(tab, plan, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var merged Partial
	for part := 0; part < 3; part++ {
		part := part
		keep := &UserFilter{Keep: func(id bitvec.UserID) bool { return uint64(id)%3 == uint64(part) }}
		got, err := est.ExecutePlanOver(tab, plan, keep, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleOver(est, keep, tab).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("part %d: filtered execution %+v, oracle %+v", part, got, want)
		}
		if got.Count(count) != got.Fraction(ref).Records {
			t.Fatalf("part %d: subset count %d disagrees with evaluated records %d", part, got.Count(count), got.Fraction(ref).Records)
		}
		merged = merged.Merge(got.Fraction(ref))
	}
	if merged != whole.Fraction(ref) {
		t.Fatalf("partitioned counters merge to %+v, want %+v", merged, whole.Fraction(ref))
	}
}

// TestFractionFromEmptySourceErrors pins the error contract: partial
// sources report emptiness as zero counters, and the estimator converts a
// zero merge into ErrNoSketches exactly as over a table.
func TestFractionFromEmptySourceErrors(t *testing.T) {
	est, err := NewEstimator(testSource(0.3))
	if err != nil {
		t.Fatal(err)
	}
	src := oracleOver(est, nil, sketch.NewTable())
	if _, err := est.Fraction(src, bitvec.MustSubset(0), bitvec.MustFromString("1")); err == nil {
		t.Fatal("empty source did not error")
	}
	// Shape validation precedes source access.
	if _, err := est.Fraction(src, bitvec.MustSubset(0, 1), bitvec.MustFromString("1")); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
