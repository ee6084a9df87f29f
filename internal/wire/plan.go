package wire

import (
	"encoding/binary"
	"fmt"

	"sketchprivacy/internal/bitvec"
)

// Plan push-down, the scatter-gather data plane between a sketchrouter and
// its nodes.  A router compiles an estimator's entire evaluation list —
// every (subset, value) fraction, every match histogram, every
// record-count lookup — into one PlanQuery frame and fans it out once; each
// node answers every entry from a single pass over its owned records and
// the router merges the per-entry counters exactly.  A k-term interval
// decomposition or a many-path decision tree therefore costs one round
// trip, not one per entry.
const (
	// TypePlanQuery asks a node to execute a whole query plan under the
	// query's ownership filter, answering every entry in one reply.
	TypePlanQuery byte = 21
	// TypePlanResult carries the per-entry counters back, positionally
	// aligned with the plan that was sent.
	TypePlanResult byte = 22
)

// Plan size limits.  They bound hostile decode allocations and define the
// largest plan a single fan-out may carry; the router pre-checks outgoing
// plans against them so an oversized (legitimate) plan fails with a clear
// "split the query" error instead of a node-side corrupt-payload refusal.
const (
	// MaxPlanFractions bounds a plan's fraction entries.
	MaxPlanFractions = 1 << 16
	// MaxPlanHists bounds a plan's histogram entries.
	MaxPlanHists = 1 << 12
	// MaxPlanCounts bounds a plan's record-count entries.
	MaxPlanCounts = 1 << 12
	// MaxPlanHistSubQueries bounds one histogram entry's sub-queries.
	MaxPlanHistSubQueries = 1 << 8
	// maxHistBins bounds one histogram result's bins.
	maxHistBins = MaxPlanHistSubQueries + 1
)

// PlanQuery is one batched scatter-gather request: the complete evaluation
// list of a compiled query plan plus the ownership filter to execute it
// under (nil filter: all records).
type PlanQuery struct {
	Filter *Filter
	// Fractions lists the (subset, value) Algorithm 2 evaluations.
	Fractions []Query
	// Hists lists the Appendix F match-histogram evaluations.
	Hists []PlanHistQuery
	// Counts lists the subsets whose record counts the plan needs.
	Counts []bitvec.Subset
	// Total asks for the all-subsets record count.
	Total bool
}

// PlanHistQuery is one histogram evaluation of a plan: its sub-queries
// and, when HasGuard, the index of the fraction entry whose non-empty
// result lets the node skip this histogram (the conjunction estimator's
// unused gluing fallback — see query.HistogramEval).
type PlanHistQuery struct {
	Subs     []Query
	Guard    uint32
	HasGuard bool
}

// PlanFraction carries the raw counters of one fraction entry.
type PlanFraction struct {
	Hits, Records uint64
}

// PlanHist carries the raw counters of one histogram entry.
type PlanHist struct {
	Users uint64
	Hist  []uint64
}

// PlanResult carries every entry's counters back, in the order the plan
// listed them.  All counters are exact integers that merge by addition
// across disjoint ownership filters, and the echoed epoch lets the router
// refuse to merge replies computed under different ring generations.
type PlanResult struct {
	Epoch     uint64
	Fractions []PlanFraction
	Hists     []PlanHist
	Counts    []uint64
	Total     uint64
}

// EncodePlanQuery serializes a plan query.
func EncodePlanQuery(q PlanQuery) []byte {
	out := make([]byte, 0, 256)
	out = appendFilter(out, q.Filter)
	out = binary.BigEndian.AppendUint32(out, uint32(len(q.Fractions)))
	for _, f := range q.Fractions {
		out = appendBytes(out, f.Subset.Tag())
		out = appendBytes(out, f.Value.Bytes())
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(q.Hists)))
	for _, h := range q.Hists {
		out = binary.BigEndian.AppendUint32(out, uint32(len(h.Subs)))
		for _, s := range h.Subs {
			out = appendBytes(out, s.Subset.Tag())
			out = appendBytes(out, s.Value.Bytes())
		}
		if h.HasGuard {
			out = append(out, 1)
			out = binary.BigEndian.AppendUint32(out, h.Guard)
		} else {
			out = append(out, 0)
		}
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(q.Counts)))
	for _, b := range q.Counts {
		out = appendBytes(out, b.Tag())
	}
	if q.Total {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// readU32 consumes a big-endian uint32.
func readU32(src []byte) (uint32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, ErrCorrupt
	}
	return binary.BigEndian.Uint32(src), src[4:], nil
}

// DecodePlanQuery reverses EncodePlanQuery.
func DecodePlanQuery(b []byte) (PlanQuery, error) {
	var q PlanQuery
	var err error
	rest := b
	if q.Filter, rest, err = readFilter(rest); err != nil {
		return PlanQuery{}, err
	}
	var n uint32
	if n, rest, err = readU32(rest); err != nil {
		return PlanQuery{}, err
	}
	if n > MaxPlanFractions {
		return PlanQuery{}, fmt.Errorf("%w: plan claims %d fraction entries", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		var f Query
		if f.Subset, f.Value, rest, err = readSubsetValue(rest); err != nil {
			return PlanQuery{}, err
		}
		q.Fractions = append(q.Fractions, f)
	}
	if n, rest, err = readU32(rest); err != nil {
		return PlanQuery{}, err
	}
	if n > MaxPlanHists {
		return PlanQuery{}, fmt.Errorf("%w: plan claims %d histogram entries", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		var k uint32
		if k, rest, err = readU32(rest); err != nil {
			return PlanQuery{}, err
		}
		if k > MaxPlanHistSubQueries {
			return PlanQuery{}, fmt.Errorf("%w: plan histogram claims %d sub-queries", ErrCorrupt, k)
		}
		var h PlanHistQuery
		h.Subs = make([]Query, 0, k)
		for j := uint32(0); j < k; j++ {
			var s Query
			if s.Subset, s.Value, rest, err = readSubsetValue(rest); err != nil {
				return PlanQuery{}, err
			}
			h.Subs = append(h.Subs, s)
		}
		if len(rest) < 1 {
			return PlanQuery{}, ErrCorrupt
		}
		switch rest[0] {
		case 0:
			rest = rest[1:]
		case 1:
			rest = rest[1:]
			if h.Guard, rest, err = readU32(rest); err != nil {
				return PlanQuery{}, err
			}
			if uint64(h.Guard) >= uint64(len(q.Fractions)) {
				return PlanQuery{}, fmt.Errorf("%w: histogram guard %d with %d fraction entries", ErrCorrupt, h.Guard, len(q.Fractions))
			}
			h.HasGuard = true
		default:
			return PlanQuery{}, fmt.Errorf("%w: histogram guard flag %d", ErrCorrupt, rest[0])
		}
		q.Hists = append(q.Hists, h)
	}
	if n, rest, err = readU32(rest); err != nil {
		return PlanQuery{}, err
	}
	if n > MaxPlanCounts {
		return PlanQuery{}, fmt.Errorf("%w: plan claims %d count entries", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		var tag []byte
		if tag, rest, err = readBytes(rest); err != nil {
			return PlanQuery{}, err
		}
		subset, err := bitvec.ParseTag(tag)
		if err != nil {
			return PlanQuery{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		q.Counts = append(q.Counts, subset)
	}
	if len(rest) != 1 {
		return PlanQuery{}, ErrCorrupt
	}
	switch rest[0] {
	case 0:
	case 1:
		q.Total = true
	default:
		return PlanQuery{}, fmt.Errorf("%w: plan total flag %d", ErrCorrupt, rest[0])
	}
	return q, nil
}

// EncodePlanResult serializes a plan result.
func EncodePlanResult(r PlanResult) []byte {
	out := make([]byte, 0, 32+16*len(r.Fractions)+8*len(r.Counts))
	out = binary.BigEndian.AppendUint64(out, r.Epoch)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Fractions)))
	for _, f := range r.Fractions {
		out = binary.BigEndian.AppendUint64(out, f.Hits)
		out = binary.BigEndian.AppendUint64(out, f.Records)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Hists)))
	for _, h := range r.Hists {
		out = binary.BigEndian.AppendUint64(out, h.Users)
		out = binary.BigEndian.AppendUint32(out, uint32(len(h.Hist)))
		for _, c := range h.Hist {
			out = binary.BigEndian.AppendUint64(out, c)
		}
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Counts)))
	for _, c := range r.Counts {
		out = binary.BigEndian.AppendUint64(out, c)
	}
	return binary.BigEndian.AppendUint64(out, r.Total)
}

// readU64 consumes a big-endian uint64.
func readU64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, ErrCorrupt
	}
	return binary.BigEndian.Uint64(src), src[8:], nil
}

// DecodePlanResult reverses EncodePlanResult.
func DecodePlanResult(b []byte) (PlanResult, error) {
	var r PlanResult
	var err error
	rest := b
	if r.Epoch, rest, err = readU64(rest); err != nil {
		return PlanResult{}, err
	}
	var n uint32
	if n, rest, err = readU32(rest); err != nil {
		return PlanResult{}, err
	}
	if n > MaxPlanFractions || uint64(len(rest)) < 16*uint64(n) {
		return PlanResult{}, fmt.Errorf("%w: plan result claims %d fraction entries in %d bytes", ErrCorrupt, n, len(rest))
	}
	for i := uint32(0); i < n; i++ {
		var f PlanFraction
		f.Hits, rest, _ = readU64(rest)
		f.Records, rest, _ = readU64(rest)
		r.Fractions = append(r.Fractions, f)
	}
	if n, rest, err = readU32(rest); err != nil {
		return PlanResult{}, err
	}
	if n > MaxPlanHists {
		return PlanResult{}, fmt.Errorf("%w: plan result claims %d histogram entries", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		var h PlanHist
		if h.Users, rest, err = readU64(rest); err != nil {
			return PlanResult{}, err
		}
		var bins uint32
		if bins, rest, err = readU32(rest); err != nil {
			return PlanResult{}, err
		}
		if bins > maxHistBins || uint64(len(rest)) < 8*uint64(bins) {
			return PlanResult{}, fmt.Errorf("%w: plan histogram result with %d bins in %d bytes", ErrCorrupt, bins, len(rest))
		}
		h.Hist = make([]uint64, bins)
		for j := range h.Hist {
			h.Hist[j], rest, _ = readU64(rest)
		}
		r.Hists = append(r.Hists, h)
	}
	if n, rest, err = readU32(rest); err != nil {
		return PlanResult{}, err
	}
	if n > MaxPlanCounts || uint64(len(rest)) < 8*uint64(n) {
		return PlanResult{}, fmt.Errorf("%w: plan result claims %d count entries in %d bytes", ErrCorrupt, n, len(rest))
	}
	for i := uint32(0); i < n; i++ {
		var c uint64
		c, rest, _ = readU64(rest)
		r.Counts = append(r.Counts, c)
	}
	if r.Total, rest, err = readU64(rest); err != nil {
		return PlanResult{}, err
	}
	if len(rest) != 0 {
		return PlanResult{}, ErrCorrupt
	}
	return r, nil
}
