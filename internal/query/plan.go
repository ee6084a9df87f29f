package query

import (
	"encoding/binary"
	"fmt"

	"sketchprivacy/internal/bitvec"
)

// Plan is the compiled form of a query: the complete list of raw-counter
// evaluations an estimator needs, gathered before anything touches the
// table or the network.  Algorithm 2 is a pure reduction over per-record
// PRF evaluations, so every derived estimator — the Section 4.1 numeric and
// interval decompositions, decision trees, the Appendix F combinations —
// is a fixed arithmetic over a known set of (subset, value) fraction
// counters, match histograms and record counts.  A Plan lists exactly that
// set, deduplicated (interval prefixes share entries across queries), and a
// PartialSource executes it in one batch: the local engine in one parallel
// sharded table pass, the cluster router in one scatter-gather fan-out —
// instead of one pass or one fan-out per evaluation.
//
// Entries are deduplicated on insertion, so a ref returned by an Add method
// may point at an entry added earlier by a different sub-estimator; the
// executors therefore never evaluate the same counters twice within a plan.
type Plan struct {
	fractions []FractionEval
	hists     []HistogramEval
	counts    []bitvec.Subset
	total     bool

	fracIdx  map[string]FracRef
	histIdx  map[string]HistRef
	countIdx map[string]CountRef
}

// FracRef, HistRef and CountRef index into the matching Results slices.
type (
	// FracRef names one (subset, value) fraction evaluation of a plan.
	FracRef int
	// HistRef names one match-histogram evaluation of a plan.
	HistRef int
	// CountRef names one subset record-count lookup of a plan.
	CountRef int
)

// FractionEval is one Algorithm 2 raw-counter evaluation: how many records
// of the subset match the value, and how many records were evaluated.  It
// is the (subset, value) pair a histogram's SubQuery is: either way the
// fact asked of a record is the bit H(id, B, v, s).
type FractionEval = SubQuery

// Key returns the evaluation's compact key (see appendPairKey): the plan's
// dedup key and the Entry of its bitmap's CacheKey.  A P10 pair's is 14
// bytes where its PRF message encoding is 104.  For a subset of up to 16
// positions under 128 it is assembled on the stack: the string is the one
// allocation, on the executor's per-pair cache-lookup path too.
func (f FractionEval) Key() string {
	var buf [pairKeyRoom]byte
	return string(appendPairKey(buf[:0], f.Subset, f.Value))
}

// pairKeyRoom is the stack room for a pair's compact key: 16 one-byte
// positions, their count and a value of up to 127 bits with its length.
const pairKeyRoom = 1 + 16 + 1 + 16

// SubsetKey returns subset b's compact encoding (Subset.AppendCompact), the
// Entry of its keep masks' CacheKeys.  It is not Subset.Key, the PRF
// message's tag that the table and the store key a subset by.
func SubsetKey(b bitvec.Subset) string {
	var buf [pairKeyRoom]byte
	return string(b.AppendCompact(buf[:0]))
}

// appendPairKey appends the compact key of the pair (b, v): b's compact
// encoding, then v's bit length n, a uvarint, and v's ⌈n/8⌉ packed bytes.
// Each part ends itself, so the key is injective over pairs.  It keys a plan's entries and
// the cache's bitmaps; the PRF message encodes the pair with Subset.AppendTag
// and Vector.AppendBytes, which it leaves alone.
func appendPairKey(dst []byte, b bitvec.Subset, v bitvec.Vector) []byte {
	dst = binary.AppendUvarint(b.AppendCompact(dst), uint64(v.Len()))
	return v.AppendPacked(dst)
}

// HistogramEval is one Appendix F match-histogram evaluation over a list of
// sub-queries.
type HistogramEval struct {
	Subs []SubQuery
	// Guard, when GuardValid, names a fraction entry of the same plan
	// whose non-empty result makes this histogram's value irrelevant: the
	// conjunction estimator consumes its gluing fallback only when the
	// exact-subset evaluation found no records, so an executor may skip a
	// guarded histogram whenever its guard counted records.  The skip is
	// sound even node-locally under ownership filters: the finisher reads
	// the fallback only when the *merged* guard count is zero, which
	// implies every node's local count was zero and none skipped.
	Guard      FracRef
	GuardValid bool
}

// Key returns the dedup key of the histogram evaluation: its guard, then
// its sub-queries' compact keys, which end themselves.  The guard is part
// of the key: the same sub-queries guarded differently are distinct
// entries (one may be skipped where the other must be computed).
func (h HistogramEval) Key() string {
	out := []byte{0}
	if h.GuardValid {
		out = binary.AppendUvarint([]byte{1}, uint64(h.Guard))
	}
	for _, s := range h.Subs {
		out = appendPairKey(out, s.Subset, s.Value)
	}
	return string(out)
}

// Skipped reports whether this histogram's evaluation may be skipped
// given the executed fraction counters — the guard found records, so the
// finisher will never read it.
func (h HistogramEval) Skipped(fractions []Partial) bool {
	return h.GuardValid && fractions[h.Guard].Records > 0
}

// NewPlan returns an empty plan.  The dedup indexes are allocated lazily,
// so a single-evaluation plan (the plain Fraction path) stays cheap.
func NewPlan() *Plan { return &Plan{} }

// AddFraction registers one (subset, value) evaluation, validating the
// Algorithm 2 query shape.  Re-adding an identical pair returns the
// existing ref.
func (p *Plan) AddFraction(b bitvec.Subset, v bitvec.Vector) (FracRef, error) {
	if err := validateFractionShape(b, v); err != nil {
		return 0, err
	}
	e := FractionEval{Subset: b, Value: v}
	key := e.Key()
	if ref, ok := p.fracIdx[key]; ok {
		return ref, nil
	}
	if p.fracIdx == nil {
		p.fracIdx = make(map[string]FracRef)
	}
	ref := FracRef(len(p.fractions))
	p.fractions = append(p.fractions, e)
	p.fracIdx[key] = ref
	return ref, nil
}

// AddHistogram registers one match-histogram evaluation, validating the
// sub-query shapes.  Re-adding an identical sub-query list returns the
// existing ref.
func (p *Plan) AddHistogram(subs []SubQuery) (HistRef, error) {
	return p.addHistogram(HistogramEval{Subs: subs})
}

// AddHistogramGuarded registers a match-histogram evaluation that an
// executor may skip whenever the guard fraction entry counts at least one
// record (see HistogramEval.Guard).  The guard must be a ref previously
// returned by AddFraction on this plan.
func (p *Plan) AddHistogramGuarded(subs []SubQuery, guard FracRef) (HistRef, error) {
	if guard < 0 || int(guard) >= len(p.fractions) {
		return 0, fmt.Errorf("%w: histogram guard %d is not a fraction entry of this plan", ErrMismatch, guard)
	}
	return p.addHistogram(HistogramEval{Subs: subs, Guard: guard, GuardValid: true})
}

func (p *Plan) addHistogram(e HistogramEval) (HistRef, error) {
	if err := validateSubQueries(e.Subs); err != nil {
		return 0, err
	}
	key := e.Key()
	if ref, ok := p.histIdx[key]; ok {
		return ref, nil
	}
	if p.histIdx == nil {
		p.histIdx = make(map[string]HistRef)
	}
	ref := HistRef(len(p.hists))
	p.hists = append(p.hists, e)
	p.histIdx[key] = ref
	return ref, nil
}

// AddSubsetRecords registers a record-count lookup for one subset.
func (p *Plan) AddSubsetRecords(b bitvec.Subset) CountRef {
	key := b.Key()
	if ref, ok := p.countIdx[key]; ok {
		return ref
	}
	if p.countIdx == nil {
		p.countIdx = make(map[string]CountRef)
	}
	ref := CountRef(len(p.counts))
	p.counts = append(p.counts, b)
	p.countIdx[key] = ref
	return ref
}

// AddTotalRecords registers the all-subsets record count.
func (p *Plan) AddTotalRecords() { p.total = true }

// Fractions returns the plan's fraction evaluations in insertion order.
// Executors must fill Results.Fractions in exactly this order.
func (p *Plan) Fractions() []FractionEval { return p.fractions }

// Histograms returns the plan's histogram evaluations in insertion order.
func (p *Plan) Histograms() []HistogramEval { return p.hists }

// CountSubsets returns the subsets whose record counts the plan needs.
func (p *Plan) CountSubsets() []bitvec.Subset { return p.counts }

// NeedsTotal reports whether the plan needs the total record count.
func (p *Plan) NeedsTotal() bool { return p.total }

// Empty reports whether the plan requires no evaluations at all; executing
// an empty plan must cost neither a table pass nor a fan-out.
func (p *Plan) Empty() bool {
	return len(p.fractions) == 0 && len(p.hists) == 0 && len(p.counts) == 0 && !p.total
}

// Results holds the executed counters of a plan, positionally aligned with
// the plan's entry slices.  All counters are exact integers, so results
// from disjoint record sets merge by addition — the property that makes the
// cluster's one-fan-out execution bit-identical to a local pass.
type Results struct {
	Fractions []Partial
	Hists     []HistPartial
	Counts    []uint64
	Total     uint64
}

// Fraction returns the counters of one planned fraction evaluation.
func (r *Results) Fraction(ref FracRef) Partial { return r.Fractions[ref] }

// Histogram returns the counters of one planned histogram evaluation.
func (r *Results) Histogram(ref HistRef) HistPartial { return r.Hists[ref] }

// Count returns one planned subset record count.
func (r *Results) Count(ref CountRef) uint64 { return r.Counts[ref] }

// Merge adds to r the counters o holds for the same plan over a disjoint
// record set: how a router sums its nodes' answers, entry by entry.
func (r *Results) Merge(o *Results) error {
	if len(o.Fractions) != len(r.Fractions) || len(o.Hists) != len(r.Hists) || len(o.Counts) != len(r.Counts) {
		return fmt.Errorf("%w: merging %d/%d/%d fraction, histogram and count results into %d/%d/%d",
			ErrMismatch, len(o.Fractions), len(o.Hists), len(o.Counts), len(r.Fractions), len(r.Hists), len(r.Counts))
	}
	for i, f := range o.Fractions {
		r.Fractions[i] = r.Fractions[i].Merge(f)
	}
	for i, h := range o.Hists {
		var err error
		if r.Hists[i], err = r.Hists[i].Merge(h); err != nil {
			return err
		}
	}
	for i, c := range o.Counts {
		r.Counts[i] += c
	}
	r.Total += o.Total
	return nil
}

// newResults allocates a result set shaped for the plan.
func newResults(p *Plan) *Results {
	return &Results{
		Fractions: make([]Partial, len(p.fractions)),
		Hists:     make([]HistPartial, len(p.hists)),
		Counts:    make([]uint64, len(p.counts)),
	}
}
