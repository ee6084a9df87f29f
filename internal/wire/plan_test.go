package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
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

// planSpec lists the entries of a plan a test wants on the wire.
type planSpec struct {
	fractions []query.FractionEval
	hists     []query.HistogramEval
	counts    []bitvec.Subset
	total     bool
}

// build compiles the spec into a plan through the plan's own Add methods;
// the spec's entries must be distinct.
func (s planSpec) build(tb testing.TB) *query.Plan {
	tb.Helper()
	p := query.NewPlan()
	for _, f := range s.fractions {
		if _, err := p.AddFraction(f.Subset, f.Value); err != nil {
			tb.Fatal(err)
		}
	}
	for _, h := range s.hists {
		var err error
		if h.GuardValid {
			_, err = p.AddHistogramGuarded(h.Subs, h.Guard)
		} else {
			_, err = p.AddHistogram(h.Subs)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for _, b := range s.counts {
		p.AddSubsetRecords(b)
	}
	if s.total {
		p.AddTotalRecords()
	}
	return p
}

// pair is a (subset, value) pair from positions and a bit string.
func pair(value string, positions ...int) query.FractionEval {
	return query.FractionEval{Subset: bitvec.MustSubset(positions...), Value: bitvec.MustFromString(value)}
}

// subs lists pairs as a histogram's sub-queries.
func subs(pairs ...query.FractionEval) []query.SubQuery {
	out := make([]query.SubQuery, len(pairs))
	for i, p := range pairs {
		out[i] = query.SubQuery(p)
	}
	return out
}

// TestPlanQueryRoundTrip pins the plan frame encoding: Plan → bytes → Plan
// is equal entry for entry, the filter survives with every field, and the
// decoded plan re-encodes to the same bytes — including an empty plan, a
// filterless one, the total-only plan a router counts records with, and a
// recovery filter carrying a budget, a domain and a failed set.
func TestPlanQueryRoundTrip(t *testing.T) {
	recovery := testFilter()
	recovery.Epoch = 4
	recovery.Budget = 4500
	recovery.DomainBits, recovery.Domain = 12, 0xabc
	recovery.Failed = []string{"10.0.0.3:7071"}
	cases := []struct {
		filter *Filter
		plan   planSpec
	}{
		{},
		{plan: planSpec{total: true}},
		{filter: testFilter(), plan: planSpec{total: true}},
		{filter: recovery, plan: planSpec{fractions: []query.FractionEval{pair("101", 0, 2, 5)}}},
		{
			filter: &Filter{Epoch: 9, Nodes: []string{"a:1", "b:2", "c:3"}, VNodes: 64, Self: "c:3", Live: []string{"a:1", "c:3"}},
			plan: planSpec{
				fractions: []query.FractionEval{pair("10", 0, 2), pair("1", 1)},
				hists: []query.HistogramEval{
					{Subs: subs(pair("1", 0), pair("0", 3)), Guard: 0, GuardValid: true},
					{Subs: subs(pair("1", 5))},
					// The same sub-queries under another guard, and under
					// none, are entries of their own.
					{Subs: subs(pair("1", 0), pair("0", 3)), Guard: 1, GuardValid: true},
					{Subs: subs(pair("1", 0), pair("0", 3))},
				},
				counts: []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(0, 1, 2)},
				total:  true,
			},
		},
	}
	for i, c := range cases {
		plan := c.plan.build(t)
		enc := EncodePlanQuery(c.filter, plan)
		filter, got, err := DecodePlanQuery(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(filter, c.filter) {
			t.Fatalf("case %d: round trip changed the filter:\nin  %+v\nout %+v", i, c.filter, filter)
		}
		if !reflect.DeepEqual(got.Fractions(), plan.Fractions()) || !reflect.DeepEqual(got.Histograms(), plan.Histograms()) ||
			!reflect.DeepEqual(got.CountSubsets(), plan.CountSubsets()) || got.NeedsTotal() != plan.NeedsTotal() {
			t.Fatalf("case %d: round trip changed the plan:\nin  %+v\nout %+v", i, plan, got)
		}
		if !bytes.Equal(EncodePlanQuery(filter, got), enc) {
			t.Fatalf("case %d: encoding not canonical", i)
		}
	}
}

// TestPlanResultRoundTrip pins the plan result encoding.
func TestPlanResultRoundTrip(t *testing.T) {
	r := &query.Results{
		Fractions: []query.Partial{{Hits: 1, Records: 2}, {Hits: 0, Records: 0}},
		Hists:     []query.HistPartial{{Users: 5, Hist: []uint64{1, 3, 1}}, {Users: 0, Hist: []uint64{0, 0}}},
		Counts:    []uint64{42},
		Total:     99,
	}
	epoch, got, err := DecodePlanResult(EncodePlanResult(7, r))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 || !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip changed the result:\nin  epoch 7 %+v\nout epoch %d %+v", r, epoch, got)
	}
}

// TestPlanDecodeGuards drives hostile count fields through the decoders:
// each must error, never allocate per the claimed count or panic.
func TestPlanDecodeGuards(t *testing.T) {
	// A plan query whose fraction count claims 2^32-1 entries.
	hostile := append([]byte{0}, binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)...)
	if _, _, err := DecodePlanQuery(hostile); err == nil {
		t.Fatal("hostile fraction count accepted")
	}
	// A filter claiming 2^32-1 ring members must fail cleanly before any
	// giant allocation, and a presence byte outside {0,1} is not a filter.
	members := []byte{1}
	members = binary.BigEndian.AppendUint64(members, 0)  // epoch
	members = binary.BigEndian.AppendUint32(members, 64) // vnodes
	members = binary.BigEndian.AppendUint32(members, 0xFFFFFFFF)
	if _, _, err := DecodePlanQuery(members); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile member count: got %v, want ErrCorrupt", err)
	}
	if _, _, err := DecodePlanQuery([]byte{2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("filter presence byte 2: got %v, want ErrCorrupt", err)
	}
	// A plan result whose histogram bin count exceeds the payload.
	r := binary.BigEndian.AppendUint64(nil, 1)   // epoch
	r = binary.BigEndian.AppendUint32(r, 0)      // fractions
	r = binary.BigEndian.AppendUint32(r, 1)      // one hist
	r = binary.BigEndian.AppendUint64(r, 1)      // users
	r = binary.BigEndian.AppendUint32(r, 0xFFFF) // bins far beyond payload
	if _, _, err := DecodePlanResult(r); err == nil {
		t.Fatal("hostile bin count accepted")
	}
	// A trailing byte after a valid plan query must be rejected.
	ok := EncodePlanQuery(nil, planSpec{total: true}.build(t))
	if _, _, err := DecodePlanQuery(append(ok, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A total flag outside {0,1} must be rejected (canonical form).
	bad := EncodePlanQuery(nil, query.NewPlan())
	bad[len(bad)-1] = 2
	if _, _, err := DecodePlanQuery(bad); err == nil {
		t.Fatal("non-canonical total flag accepted")
	}
	// A guard past the fraction list and an entry of the wrong shape — what
	// the plan's own Add methods refuse — are corrupt frames like any other.
	guard := rawPlan([]query.FractionEval{pair("1", 0)}, []query.HistogramEval{{Subs: subs(pair("1", 0)), Guard: 1, GuardValid: true}}, nil)
	if _, _, err := DecodePlanQuery(guard); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("guard 1 with one fraction entry: got %v, want ErrCorrupt", err)
	}
	short := rawPlan([]query.FractionEval{{Subset: bitvec.MustSubset(0, 2), Value: bitvec.MustFromString("1")}}, nil, nil)
	if _, _, err := DecodePlanQuery(short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a 2-position subset with a 1-bit value: got %v, want ErrCorrupt", err)
	}
}

// rawPlan encodes a filterless, total-less plan frame entry by entry,
// repeats, dangling guards and all — what no Plan encodes to.
func rawPlan(fractions []query.FractionEval, hists []query.HistogramEval, counts []bitvec.Subset) []byte {
	out := binary.BigEndian.AppendUint32([]byte{0}, uint32(len(fractions)))
	for _, f := range fractions {
		out = appendSubsetValue(out, f.Subset, f.Value)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(hists)))
	for _, h := range hists {
		out = binary.BigEndian.AppendUint32(out, uint32(len(h.Subs)))
		for _, s := range h.Subs {
			out = appendSubsetValue(out, s.Subset, s.Value)
		}
		if h.GuardValid {
			out = binary.BigEndian.AppendUint32(append(out, 1), uint32(h.Guard))
		} else {
			out = append(out, 0)
		}
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(counts)))
	for _, b := range counts {
		out = appendBytes(out, b.Tag())
	}
	return append(out, 0)
}

// TestPlanDecodeRefusesRepeatedEntries: position i of a plan frame is entry
// i of the plan, so a frame listing a fraction, a histogram or a count
// twice — which no plan encodes to — is refused as corrupt rather than
// answered with a shorter reply than it asked for.
func TestPlanDecodeRefusesRepeatedEntries(t *testing.T) {
	a, b := pair("10", 0, 2), pair("1", 1)
	distinct := rawPlan([]query.FractionEval{a, b}, []query.HistogramEval{{Subs: subs(a, b)}, {Subs: subs(b, a)}, {Subs: subs(a)}}, []bitvec.Subset{a.Subset, b.Subset})
	if _, p, err := DecodePlanQuery(distinct); err != nil || len(p.Fractions()) != 2 || len(p.Histograms()) != 3 || len(p.CountSubsets()) != 2 {
		t.Fatalf("a frame of distinct entries: %v", err)
	}
	for name, frame := range map[string][]byte{
		"fraction":  rawPlan([]query.FractionEval{a, b, a}, nil, nil),
		"histogram": rawPlan(nil, []query.HistogramEval{{Subs: subs(a, b)}, {Subs: subs(b)}, {Subs: subs(a, b)}}, nil),
		"count":     rawPlan(nil, nil, []bitvec.Subset{b.Subset, b.Subset}),
	} {
		if _, _, err := DecodePlanQuery(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a repeated %s entry: got %v, want ErrCorrupt", name, err)
		}
	}
}
