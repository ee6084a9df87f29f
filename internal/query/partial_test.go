package query

import (
	"math"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/sketch"
)

// mergedSource is a PartialSource that merges the partials of several
// disjoint shards — the in-process model of the cluster router, used to
// prove the merge is exact without any networking.
type mergedSource struct {
	e      *Estimator
	shards []*sketch.Table
}

func (m mergedSource) FractionPartial(b bitvec.Subset, v bitvec.Vector) (Partial, error) {
	var out Partial
	for _, tab := range m.shards {
		p, err := m.e.FractionPartialOf(tab, b, v, nil)
		if err != nil {
			return Partial{}, err
		}
		out = out.Merge(p)
	}
	return out, nil
}

func (m mergedSource) HistogramPartial(subs []SubQuery) (HistPartial, error) {
	var out HistPartial
	for _, tab := range m.shards {
		h, err := m.e.HistogramPartialOf(tab, subs, nil)
		if err != nil {
			return HistPartial{}, err
		}
		if out, err = out.Merge(h); err != nil {
			return HistPartial{}, err
		}
	}
	return out, nil
}

func (m mergedSource) SubsetRecords(b bitvec.Subset) (uint64, error) {
	var n uint64
	for _, tab := range m.shards {
		n += SubsetRecordsOf(tab, b, nil)
	}
	return n, nil
}

func (m mergedSource) TotalRecords() (uint64, error) {
	var n uint64
	for _, tab := range m.shards {
		n += TotalRecordsOf(tab, nil)
	}
	return n, nil
}

// Execute runs the plan entry-at-a-time over the merged shards — the
// serial reference path.
func (m mergedSource) Execute(p *Plan) (*Results, error) { return ExecuteSerial(m, p) }

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
	src := mergedSource{e: est, shards: splitTable(t, tab, 3)}

	conjSubset := bitvec.Range(0, 4)
	conjValue := bitvec.MustFromString("1010")
	want, err := est.Fraction(tab, conjSubset, conjValue)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.FractionFrom(src, conjSubset, conjValue)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(want, got) {
		t.Fatalf("merged Fraction differs: %+v vs %+v", want, got)
	}

	wantMean, err := est.FieldMean(tab, field)
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := est.FieldMeanFrom(src, field)
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
	wantU, err := est.UnionConjunction(tab, subs)
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := est.UnionConjunctionFrom(src, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(wantU, gotU) {
		t.Fatalf("merged UnionConjunction differs: %+v vs %+v", wantU, gotU)
	}

	wantX, err := est.ExactlyOfK(tab, subs, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotX, err := est.ExactlyOfKFrom(src, subs, 1)
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

// TestUserFilterPartitionExactness: partials computed under a partition of
// user filters merge to the unfiltered counters.
func TestUserFilterPartitionExactness(t *testing.T) {
	const p, width = 0.3, 6
	pop := dataset.UniformBinary(3, 2000, width, 0.5)
	subset := bitvec.Range(0, 3)
	tab, est := buildTable(t, pop, []bitvec.Subset{subset}, p, 10, 9)
	value := bitvec.MustFromString("110")

	whole, err := est.FractionPartialOf(tab, subset, value, nil)
	if err != nil {
		t.Fatal(err)
	}
	var merged Partial
	for part := 0; part < 3; part++ {
		part := part
		keep := func(id bitvec.UserID) bool { return uint64(id)%3 == uint64(part) }
		pt, err := est.FractionPartialOf(tab, subset, value, keep)
		if err != nil {
			t.Fatal(err)
		}
		merged = merged.Merge(pt)
		if n := SubsetRecordsOf(tab, subset, keep); n != pt.Records {
			t.Fatalf("SubsetRecordsOf %d disagrees with partial records %d", n, pt.Records)
		}
	}
	if merged != whole {
		t.Fatalf("partitioned partials merge to %+v, want %+v", merged, whole)
	}
}

// TestFractionFromEmptySourceErrors pins the error contract: partial
// sources report emptiness as zero counters, and the estimator converts a
// zero merge into ErrNoSketches exactly like the table path.
func TestFractionFromEmptySourceErrors(t *testing.T) {
	est, err := NewEstimator(testSource(0.3))
	if err != nil {
		t.Fatal(err)
	}
	src := mergedSource{e: est, shards: []*sketch.Table{sketch.NewTable()}}
	if _, err := est.FractionFrom(src, bitvec.MustSubset(0), bitvec.MustFromString("1")); err == nil {
		t.Fatal("empty source did not error")
	}
	// Shape validation precedes source access, matching Fraction.
	if _, err := est.FractionFrom(src, bitvec.MustSubset(0, 1), bitvec.MustFromString("1")); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
