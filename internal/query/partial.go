package query

import (
	"fmt"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// Partial is the pair of raw counters Algorithm 2 reduces over: how many
// records matched the query evaluation and how many records were evaluated.
// Because Fraction is a pure sum of per-record indicators, partials over
// disjoint record sets merge exactly — a router summing node partials
// computes bit-identical estimates to a single node holding the union of
// the records.
type Partial struct {
	// Hits is the number of records whose evaluation H(id, B, v, s) was 1.
	Hits uint64
	// Records is the number of records evaluated.
	Records uint64
}

// Merge returns the exact union counters of two disjoint record sets.
func (p Partial) Merge(q Partial) Partial {
	return Partial{Hits: p.Hits + q.Hits, Records: p.Records + q.Records}
}

// HistPartial is the mergeable form of the Appendix F match histogram:
// Hist[l] counts users for whom exactly l of the k sub-query evaluations
// were 1, over the Users users that sketched every sub-query subset.
type HistPartial struct {
	// Hist has k+1 bins for a k-sub-query histogram.
	Hist []uint64
	// Users is the number of users the histogram covers.
	Users uint64
}

// Merge returns the exact union histogram of two disjoint user sets.
func (h HistPartial) Merge(o HistPartial) (HistPartial, error) {
	if len(h.Hist) == 0 {
		return o, nil
	}
	if len(o.Hist) == 0 {
		return h, nil
	}
	if len(h.Hist) != len(o.Hist) {
		return HistPartial{}, fmt.Errorf("%w: merging histograms with %d and %d bins", ErrMismatch, len(h.Hist), len(o.Hist))
	}
	out := HistPartial{Hist: make([]uint64, len(h.Hist)), Users: h.Users + o.Users}
	for i := range out.Hist {
		out.Hist[i] = h.Hist[i] + o.Hist[i]
	}
	return out, nil
}

// UserFilter restricts an evaluation to the records whose user Keep
// accepts.  A nil *UserFilter accepts everything.  The cluster layer uses
// it to assign each record to exactly one live replica, so replicated
// records are counted once across a scatter-gather fan-out.
type UserFilter struct {
	// Keep is the predicate.
	Keep func(bitvec.UserID) bool
	// Key is the predicate's identity: two filters with the same non-empty
	// Key accept exactly the same users, so a subset's keep mask built
	// under one may be served to the other from a BitmapCache.  Whoever
	// sets it owns that promise (cluster.CompileFilter derives it from the
	// predicate's inputs).  A filter with an empty Key is never cached.
	Key string
}

// PartialSource answers compiled plans.  Every estimator — Algorithm 2
// fractions, the numeric, interval and tree decompositions, the Appendix F
// combinations — compiles what it needs into a Plan and runs it through
// Execute in one batch, so the whole query surface works unchanged over a
// local table, an engine or a cluster router.
type PartialSource interface {
	// Execute runs every evaluation of a plan in one batch — one parallel
	// table pass locally, one scatter-gather fan-out over a cluster.  A
	// source with no records for an entry's subset answers zero counters,
	// not an error: emptiness is decided by the caller after merging.
	Execute(p *Plan) (*Results, error)
	// TotalRecords returns how many records exist across all subsets.
	TotalRecords() (uint64, error)
}

// tableSource adapts a local sketch table to PartialSource.
type tableSource struct {
	e   *Estimator
	tab *sketch.Table
}

// TableSource returns the PartialSource over a local table — the one
// adapter between a *sketch.Table and the estimators.  It holds no state
// beyond the two pointers; callers with a table build it once and ask
// every estimator through it.
func (e *Estimator) TableSource(tab *sketch.Table) PartialSource {
	return tableSource{e: e, tab: tab}
}

// Execute runs the plan in one batched table pass (no cross-query cache;
// the engine's source adds one).
func (s tableSource) Execute(p *Plan) (*Results, error) {
	return s.e.ExecutePlanOver(s.tab, p, nil, nil)
}

func (s tableSource) TotalRecords() (uint64, error) { return TotalRecordsVia(s.Execute) }

// TotalRecordsVia answers PartialSource.TotalRecords with the total-only
// plan, so a source counts its records the way it counts everything else:
// under its filter, from its cache, over its fan-out.
func TotalRecordsVia(execute func(*Plan) (*Results, error)) (uint64, error) {
	p := NewPlan()
	p.AddTotalRecords()
	res, err := execute(p)
	if err != nil {
		return 0, err
	}
	return res.Total, nil
}

// validateFractionShape checks the Algorithm 2 query shape.
func validateFractionShape(b bitvec.Subset, v bitvec.Vector) error {
	if b.Len() != v.Len() {
		return fmt.Errorf("%w: subset of size %d queried with value of length %d", ErrMismatch, b.Len(), v.Len())
	}
	if b.Len() == 0 {
		return fmt.Errorf("%w: empty subset", ErrMismatch)
	}
	return nil
}
