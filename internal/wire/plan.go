package wire

import (
	"encoding/binary"
	"fmt"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
)

// Plan push-down, the scatter-gather data plane between a sketchrouter and
// its nodes.  A router compiles an estimator's entire evaluation list —
// every (subset, value) fraction, every match histogram, every
// record-count lookup — into one query.Plan, the planQuery frame is that
// plan's encoding, and it is fanned out once; each node answers every entry
// from a single pass over its owned records with its query.Results, and
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

// EncodePlanQuery serializes a compiled plan — the frame is the plan, entry
// for entry in the plan's own order — under the ownership filter to execute
// it with (nil filter: all records).
func EncodePlanQuery(f *Filter, p *query.Plan) []byte {
	out := make([]byte, 0, 256)
	out = appendFilter(out, f)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.Fractions())))
	for _, e := range p.Fractions() {
		out = appendSubsetValue(out, e.Subset, e.Value)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.Histograms())))
	for _, h := range p.Histograms() {
		out = binary.BigEndian.AppendUint32(out, uint32(len(h.Subs)))
		for _, s := range h.Subs {
			out = appendSubsetValue(out, s.Subset, s.Value)
		}
		// The guard is the index of the fraction entry whose non-empty
		// result lets the node skip this histogram (see
		// query.HistogramEval).
		if h.GuardValid {
			out = append(out, 1)
			out = binary.BigEndian.AppendUint32(out, uint32(h.Guard))
		} else {
			out = append(out, 0)
		}
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.CountSubsets())))
	for _, b := range p.CountSubsets() {
		out = appendBytes(out, b.Tag())
	}
	if p.NeedsTotal() {
		return append(out, 1)
	}
	return append(out, 0)
}

// appendSubsetValue appends one (subset tag, value bytes) pair, each behind
// its 4-byte length, straight into dst.
func appendSubsetValue(dst []byte, b bitvec.Subset, v bitvec.Vector) []byte {
	dst = b.AppendTag(binary.BigEndian.AppendUint32(dst, uint32(b.TagLen())))
	return v.AppendBytes(binary.BigEndian.AppendUint32(dst, uint32(v.EncodedLen())))
}

// readU32 consumes a big-endian uint32.
func readU32(src []byte) (uint32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, ErrCorrupt
	}
	return binary.BigEndian.Uint32(src), src[4:], nil
}

// readCount consumes a big-endian uint32 entry count of at most max.
func readCount(src []byte, max uint32, what string) (uint32, []byte, error) {
	n, rest, err := readU32(src)
	if err == nil && n > max {
		err = fmt.Errorf("%w: plan claims %d %s", ErrCorrupt, n, what)
	}
	return n, rest, err
}

// readFlag consumes a byte that must be 0 or 1.
func readFlag(src []byte, what string) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, ErrCorrupt
	}
	if src[0] > 1 {
		return false, nil, fmt.Errorf("%w: %s flag %d", ErrCorrupt, what, src[0])
	}
	return src[0] == 1, src[1:], nil
}

// DecodePlanQuery reverses EncodePlanQuery, rebuilding the plan through
// its own Add methods.  Whatever cannot be a plan's encoding is ErrCorrupt,
// one class at the wire boundary: an entry the plan refuses (the wrong
// shape, a guard that names no fraction entry), and a frame that repeats an
// entry — which a plan, deduplicated as it is built, never encodes to — so
// position i of the frame is entry i of the plan and of the reply.
func DecodePlanQuery(b []byte) (*Filter, *query.Plan, error) {
	f, rest, err := readFilter(b)
	if err != nil {
		return nil, nil, err
	}
	p := query.NewPlan()
	var n uint32
	if n, rest, err = readCount(rest, MaxPlanFractions, "fraction entries"); err != nil {
		return nil, nil, err
	}
	for i := uint32(0); i < n; i++ {
		var subset bitvec.Subset
		var value bitvec.Vector
		if subset, value, rest, err = readSubsetValue(rest); err != nil {
			return nil, nil, err
		}
		if ref, err := p.AddFraction(subset, value); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		} else if uint32(ref) != i {
			return nil, nil, fmt.Errorf("%w: plan fraction entry %d repeats entry %d", ErrCorrupt, i, ref)
		}
	}
	if n, rest, err = readCount(rest, MaxPlanHists, "histogram entries"); err != nil {
		return nil, nil, err
	}
	for i := uint32(0); i < n; i++ {
		var k uint32
		if k, rest, err = readCount(rest, MaxPlanHistSubQueries, "sub-queries of a histogram"); err != nil {
			return nil, nil, err
		}
		subs := make([]query.SubQuery, k)
		for j := range subs {
			if subs[j].Subset, subs[j].Value, rest, err = readSubsetValue(rest); err != nil {
				return nil, nil, err
			}
		}
		var guarded bool
		if guarded, rest, err = readFlag(rest, "histogram guard"); err != nil {
			return nil, nil, err
		}
		var ref query.HistRef
		if guarded {
			var guard uint32
			if guard, rest, err = readU32(rest); err != nil {
				return nil, nil, err
			}
			ref, err = p.AddHistogramGuarded(subs, query.FracRef(guard))
		} else {
			ref, err = p.AddHistogram(subs)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if uint32(ref) != i {
			return nil, nil, fmt.Errorf("%w: plan histogram entry %d repeats entry %d", ErrCorrupt, i, ref)
		}
	}
	if n, rest, err = readCount(rest, MaxPlanCounts, "count entries"); err != nil {
		return nil, nil, err
	}
	for i := uint32(0); i < n; i++ {
		var tag []byte
		if tag, rest, err = readBytes(rest); err != nil {
			return nil, nil, err
		}
		subset, err := bitvec.ParseTag(tag)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if ref := p.AddSubsetRecords(subset); uint32(ref) != i {
			return nil, nil, fmt.Errorf("%w: plan count entry %d repeats entry %d", ErrCorrupt, i, ref)
		}
	}
	total, rest, err := readFlag(rest, "plan total")
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, ErrCorrupt
	}
	if total {
		p.AddTotalRecords()
	}
	return f, p, nil
}

// EncodePlanResult serializes a plan's executed counters, in the order the
// plan listed its entries, after the ring epoch they were computed under:
// all counters are exact integers that merge by addition across disjoint
// ownership filters, and the echoed epoch lets the router refuse to merge
// replies computed under different ring generations.
func EncodePlanResult(epoch uint64, r *query.Results) []byte {
	out := make([]byte, 0, 32+16*len(r.Fractions)+8*len(r.Counts))
	out = binary.BigEndian.AppendUint64(out, epoch)
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
func DecodePlanResult(b []byte) (epoch uint64, r *query.Results, err error) {
	r = &query.Results{}
	rest := b
	if epoch, rest, err = readU64(rest); err != nil {
		return 0, nil, err
	}
	var n uint32
	if n, rest, err = readU32(rest); err != nil {
		return 0, nil, err
	}
	if n > MaxPlanFractions || uint64(len(rest)) < 16*uint64(n) {
		return 0, nil, fmt.Errorf("%w: plan result claims %d fraction entries in %d bytes", ErrCorrupt, n, len(rest))
	}
	r.Fractions = make([]query.Partial, n)
	for i := range r.Fractions {
		r.Fractions[i].Hits, rest, _ = readU64(rest)
		r.Fractions[i].Records, rest, _ = readU64(rest)
	}
	if n, rest, err = readU32(rest); err != nil {
		return 0, nil, err
	}
	if n > MaxPlanHists {
		return 0, nil, fmt.Errorf("%w: plan result claims %d histogram entries", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		var h query.HistPartial
		if h.Users, rest, err = readU64(rest); err != nil {
			return 0, nil, err
		}
		var bins uint32
		if bins, rest, err = readU32(rest); err != nil {
			return 0, nil, err
		}
		if bins > maxHistBins || uint64(len(rest)) < 8*uint64(bins) {
			return 0, nil, fmt.Errorf("%w: plan histogram result with %d bins in %d bytes", ErrCorrupt, bins, len(rest))
		}
		h.Hist = make([]uint64, bins)
		for j := range h.Hist {
			h.Hist[j], rest, _ = readU64(rest)
		}
		r.Hists = append(r.Hists, h)
	}
	if n, rest, err = readU32(rest); err != nil {
		return 0, nil, err
	}
	if n > MaxPlanCounts || uint64(len(rest)) < 8*uint64(n) {
		return 0, nil, fmt.Errorf("%w: plan result claims %d count entries in %d bytes", ErrCorrupt, n, len(rest))
	}
	r.Counts = make([]uint64, n)
	for i := range r.Counts {
		r.Counts[i], rest, _ = readU64(rest)
	}
	if r.Total, rest, err = readU64(rest); err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, ErrCorrupt
	}
	return epoch, r, nil
}
