package query

import (
	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
)

// oracleSource is the slow, obviously-correct reference every executor in
// the tree is ultimately differenced against: a serial loop that calls the
// scalar sketch.Evaluate once per record and plan entry over
// Table.Snapshot, with no kernels, no packed words, no sharding and no
// cache.  Several tables model disjoint shards (a cluster's nodes): each
// is answered on its own, guard skips included, and the counters are
// merged by addition.  keep restricts every counter to the users it
// accepts (nil: all).
type oracleSource struct {
	h    prf.BitSource
	tabs []*sketch.Table
	keep *UserFilter
}

// oracleOver returns the oracle for e's public function over the tables
// (one table, or the disjoint shards of a modelled cluster) under keep.
func oracleOver(e *Estimator, keep *UserFilter, tabs ...*sketch.Table) oracleSource {
	return oracleSource{h: e.h, tabs: tabs, keep: keep}
}

// Execute implements PartialSource.
func (o oracleSource) Execute(p *Plan) (*Results, error) {
	merged := newResults(p)
	for _, tab := range o.tabs {
		if err := merged.Merge(o.executeOne(tab, p)); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// TotalRecords implements PartialSource.
func (o oracleSource) TotalRecords() (uint64, error) { return TotalRecordsVia(o.Execute) }

// kept returns the records of one subset whose user passes the filter.
func (o oracleSource) kept(tab *sketch.Table, b bitvec.Subset) []sketch.Published {
	var out []sketch.Published
	for _, rec := range tab.Snapshot(b) {
		if o.keep == nil || o.keep.Keep(rec.ID) {
			out = append(out, rec)
		}
	}
	return out
}

// executeOne answers the plan over one table.
func (o oracleSource) executeOne(tab *sketch.Table, p *Plan) *Results {
	res := newResults(p)
	for i, f := range p.Fractions() {
		for _, rec := range o.kept(tab, f.Subset) {
			res.Fractions[i].Records++
			if sketch.Evaluate(o.h, rec.ID, f.Subset, f.Value, rec.S) {
				res.Fractions[i].Hits++
			}
		}
	}
	for i, hq := range p.Histograms() {
		if hq.Skipped(res.Fractions) {
			continue
		}
		// A user counts when every sub-query subset holds a sketch of
		// theirs; the bin is how many of those sketches evaluate to 1.
		sketches := make([]map[bitvec.UserID]sketch.Sketch, len(hq.Subs))
		for j, s := range hq.Subs {
			sketches[j] = make(map[bitvec.UserID]sketch.Sketch)
			for _, rec := range o.kept(tab, s.Subset) {
				sketches[j][rec.ID] = rec.S
			}
		}
		hp := HistPartial{Hist: make([]uint64, len(hq.Subs)+1)}
	users:
		for id := range sketches[0] {
			matches := 0
			for j, s := range hq.Subs {
				sk, ok := sketches[j][id]
				if !ok {
					continue users
				}
				if sketch.Evaluate(o.h, id, s.Subset, s.Value, sk) {
					matches++
				}
			}
			hp.Hist[matches]++
			hp.Users++
		}
		res.Hists[i] = hp
	}
	for i, b := range p.CountSubsets() {
		res.Counts[i] = uint64(len(o.kept(tab, b)))
	}
	if p.NeedsTotal() {
		for _, b := range tab.Subsets() {
			res.Total += uint64(len(o.kept(tab, b)))
		}
	}
	return res
}
