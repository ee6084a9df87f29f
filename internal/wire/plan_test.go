package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"sketchprivacy/internal/bitvec"
)

// testFilter is an ownership filter over three members, one of them down.
func testFilter() *Filter {
	return &Filter{
		Nodes:  []string{"10.0.0.1:7071", "10.0.0.2:7071", "10.0.0.3:7071"},
		VNodes: 64,
		Self:   "10.0.0.2:7071",
		Live:   []string{"10.0.0.2:7071", "10.0.0.3:7071"},
	}
}

// TestPlanQueryRoundTrip pins the plan frame encoding: every field survives
// the round trip and re-encodes to the same bytes, including an empty plan,
// a filterless one, the total-only plan a router counts records with, and
// a recovery filter carrying a budget, a domain and a failed set.
func TestPlanQueryRoundTrip(t *testing.T) {
	recovery := testFilter()
	recovery.Epoch = 4
	recovery.Budget = 4500
	recovery.DomainBits, recovery.Domain = 12, 0xabc
	recovery.Failed = []string{"10.0.0.3:7071"}
	cases := []PlanQuery{
		{},
		{Total: true},
		{Filter: testFilter(), Total: true},
		{Filter: recovery, Fractions: []Query{{Subset: bitvec.MustSubset(0, 2, 5), Value: bitvec.MustFromString("101")}}},
		{
			Filter: &Filter{Epoch: 9, Nodes: []string{"a:1", "b:2", "c:3"}, VNodes: 64, Self: "c:3", Live: []string{"a:1", "c:3"}},
			Fractions: []Query{
				{Subset: bitvec.MustSubset(0, 2), Value: bitvec.MustFromString("10")},
				{Subset: bitvec.MustSubset(1), Value: bitvec.MustFromString("1")},
			},
			Hists: []PlanHistQuery{
				{Subs: []Query{{Subset: bitvec.MustSubset(0), Value: bitvec.MustFromString("1")}, {Subset: bitvec.MustSubset(3), Value: bitvec.MustFromString("0")}}, Guard: 0, HasGuard: true},
				{Subs: []Query{{Subset: bitvec.MustSubset(5), Value: bitvec.MustFromString("1")}}},
			},
			Counts: []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(0, 1, 2)},
			Total:  true,
		},
	}
	for i, q := range cases {
		enc := EncodePlanQuery(q)
		got, err := DecodePlanQuery(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizePlanQuery(q), normalizePlanQuery(got)) {
			t.Fatalf("case %d: round trip changed the plan:\nin  %+v\nout %+v", i, q, got)
		}
		if !bytes.Equal(EncodePlanQuery(got), enc) {
			t.Fatalf("case %d: encoding not canonical", i)
		}
	}
}

// normalizePlanQuery maps empty slices to nil so DeepEqual compares
// contents, not allocation accidents.
func normalizePlanQuery(q PlanQuery) PlanQuery {
	if len(q.Fractions) == 0 {
		q.Fractions = nil
	}
	if len(q.Hists) == 0 {
		q.Hists = nil
	}
	if len(q.Counts) == 0 {
		q.Counts = nil
	}
	return q
}

// TestPlanResultRoundTrip pins the plan result encoding.
func TestPlanResultRoundTrip(t *testing.T) {
	r := PlanResult{
		Epoch:     7,
		Fractions: []PlanFraction{{Hits: 1, Records: 2}, {Hits: 0, Records: 0}},
		Hists:     []PlanHist{{Users: 5, Hist: []uint64{1, 3, 1}}, {Users: 0, Hist: []uint64{0, 0}}},
		Counts:    []uint64{42},
		Total:     99,
	}
	got, err := DecodePlanResult(EncodePlanResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip changed the result:\nin  %+v\nout %+v", r, got)
	}
}

// TestPlanDecodeGuards drives hostile count fields through the decoders:
// each must error, never allocate per the claimed count or panic.
func TestPlanDecodeGuards(t *testing.T) {
	// A plan query whose fraction count claims 2^32-1 entries.
	hostile := append([]byte{0}, binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)...)
	if _, err := DecodePlanQuery(hostile); err == nil {
		t.Fatal("hostile fraction count accepted")
	}
	// A filter claiming 2^32-1 ring members must fail cleanly before any
	// giant allocation, and a presence byte outside {0,1} is not a filter.
	members := []byte{1}
	members = binary.BigEndian.AppendUint64(members, 0)  // epoch
	members = binary.BigEndian.AppendUint32(members, 64) // vnodes
	members = binary.BigEndian.AppendUint32(members, 0xFFFFFFFF)
	if _, err := DecodePlanQuery(members); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile member count: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodePlanQuery([]byte{2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("filter presence byte 2: got %v, want ErrCorrupt", err)
	}
	// A plan result whose histogram bin count exceeds the payload.
	r := binary.BigEndian.AppendUint64(nil, 1)   // epoch
	r = binary.BigEndian.AppendUint32(r, 0)      // fractions
	r = binary.BigEndian.AppendUint32(r, 1)      // one hist
	r = binary.BigEndian.AppendUint64(r, 1)      // users
	r = binary.BigEndian.AppendUint32(r, 0xFFFF) // bins far beyond payload
	if _, err := DecodePlanResult(r); err == nil {
		t.Fatal("hostile bin count accepted")
	}
	// A trailing byte after a valid plan query must be rejected.
	ok := EncodePlanQuery(PlanQuery{Total: true})
	if _, err := DecodePlanQuery(append(ok, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A total flag outside {0,1} must be rejected (canonical form).
	bad := EncodePlanQuery(PlanQuery{})
	bad[len(bad)-1] = 2
	if _, err := DecodePlanQuery(bad); err == nil {
		t.Fatal("non-canonical total flag accepted")
	}
}
