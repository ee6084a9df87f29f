package engine

import (
	"errors"
	"fmt"
	"sync"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

// Common engine errors.
var (
	// ErrBudgetExhausted is returned by the SULQ-style paid mode once its
	// query budget is spent.
	ErrBudgetExhausted = errors.New("engine: output-perturbation query budget exhausted")
	// ErrNotConfigured is returned when a query needs a subset the
	// deployment never sketched.
	ErrNotConfigured = errors.New("engine: subset not configured for sketching")
)

// ingestStripes is how many stripe locks ingestion takes, a user's by id.
const ingestStripes = 64

// Engine is the analyst-facing aggregation service for the trusted-party-
// free mode: a public sketch store plus the estimators.
type Engine struct {
	params sketch.Params
	est    *query.Estimator
	table  *sketch.Table
	// st, when non-nil, is the durability layer: every write appends to it
	// after the table probes the records and before they land, and
	// AttachStore rehydrates the table from it on startup.
	st store.Store
	// ingestMu stripes (by user ID) serialize a write's probe, append and
	// land: without them two publishes of one (user, subset) could both
	// pass the probe and both be appended.  Queries never touch these
	// locks.
	ingestMu [ingestStripes]sync.Mutex
	// cache holds per-(subset, value) evaluation bitmaps for the plan
	// executor, versioned by table write generation so ingests invalidate
	// them implicitly.
	cache *planCache
	// m, when non-nil, holds the engine's observability instruments; see
	// metrics.go.  Left nil, every instrumentation site is one branch.
	m *engineMetrics
}

// New creates an engine around a public p-biased function and parameters.
func New(h prf.BitSource, params sketch.Params) (*Engine, error) {
	if _, err := sketch.NewParams(params.P, params.Length); err != nil {
		return nil, err
	}
	if h.Bias() != params.P {
		return nil, fmt.Errorf("engine: bit source bias %v does not match params %v", h.Bias(), params.P)
	}
	est, err := query.NewEstimator(h)
	if err != nil {
		return nil, err
	}
	return &Engine{params: params, est: est, table: sketch.NewTable(), cache: newPlanCache()}, nil
}

// NewWithStore creates an engine whose table is rehydrated from st and
// whose ingests are made durable through it.
func NewWithStore(h prf.BitSource, params sketch.Params, st store.Store) (*Engine, error) {
	e, err := New(h, params)
	if err != nil {
		return nil, err
	}
	if err := e.AttachStore(st); err != nil {
		return nil, err
	}
	return e, nil
}

// AttachStore rehydrates the in-memory table from st and routes every
// subsequent ingest through it.  It must be called before the engine
// starts serving: the replay loads st's records (deduplicated,
// newest-wins) into the table, skipping (user, subset) pairs already
// present in memory.
func (e *Engine) AttachStore(st store.Store) error {
	if st == nil {
		return errors.New("engine: nil store")
	}
	// The store replays itself as the table's own columns: one run per
	// subset, ids ascending, each landing with a single column load.
	if err := st.IterateRuns(e.table.LoadRun); err != nil {
		return fmt.Errorf("engine: replaying store: %w", err)
	}
	e.st = st
	return nil
}

// Store returns the attached durability layer, or nil when the engine is
// memory-only.
func (e *Engine) Store() store.Store { return e.st }

// Params returns the mechanism parameters the engine was configured with.
func (e *Engine) Params() sketch.Params { return e.params }

// Table exposes the underlying public sketch store (read-mostly; ingestion
// should go through Ingest or IngestBatch so duplicate handling and
// durability stay in one place).
func (e *Engine) Table() *sketch.Table { return e.table }

// Estimator exposes the underlying query estimator.
func (e *Engine) Estimator() *query.Estimator { return e.est }

// Ingest stores one published sketch as a batch of one (IngestBatch):
// the table probes it (which enforces the one-sketch-per-(user, subset)
// budget rule), the durable store appends it when one is attached, and only
// then does it land.  A duplicate publish therefore never reaches the log,
// nothing is queryable before it is durable, and a failed append leaves
// nothing to take back: the publish is not acknowledged, and the user can
// retry once the store recovers.  The probe-to-land window runs under the
// user's stripe lock, so a concurrent publish for the same (user, subset)
// waits for the outcome instead of racing it.
//
// Re-publishing the *identical* sketch for a (user, subset) pair is an
// idempotent no-op, acknowledged without touching the store: the same
// public object discloses nothing new, and cluster replication depends on
// retry convergence — a publish that reached one replica before failing
// must be acknowledged by that replica on retry, not refused as a
// duplicate.  A *different* sketch for the same pair is still rejected
// (each extra sketch would spend more of the user's privacy budget,
// Corollary 3.4).
func (e *Engine) Ingest(p sketch.Published) error {
	return e.IngestBatch([]sketch.Published{p})
}

// SnapshotBatch streams the engine's stored records in bounded batches for
// the cluster rebalance path: pass cursor zero to start and the returned
// next cursor thereafter, until done.  A store that implements
// store.BatchReader serves the stream segment-at-a-time from disk metadata
// without materialising a whole shard; a memory-only engine streams its
// table.  Both paths share the contract rebalancing relies on: every
// record present when the stream started is returned at least once
// (duplicates possible under concurrent ingestion — consumers are
// idempotent), and records published mid-stream may be omitted (the
// router's migration dual-write covers them).
func (e *Engine) SnapshotBatch(cursor uint64, max int) ([]sketch.Published, uint64, bool, error) {
	if max <= 0 {
		max = 2048
	}
	if e.m != nil {
		e.m.snapshotBatch.Inc()
	}
	if e.st != nil {
		if br, ok := e.st.(store.BatchReader); ok {
			return br.ReadBatch(cursor, max)
		}
	}
	// Table path.  The cursor packs (subset index, record offset) over the
	// sorted subset list; both only grow under ingestion (no write removes a
	// record), so a concurrent insert can shift a position right — causing
	// a re-read — but never left past unread records.
	subsets := e.table.Subsets()
	si, off := int(cursor>>32), int(cursor&0xFFFFFFFF)
	var out []sketch.Published
	for si < len(subsets) && len(out) < max {
		records, _ := e.table.View(subsets[si])
		if off >= records.Len() {
			si, off = si+1, 0
			continue
		}
		take := min(max-len(out), records.Len()-off)
		out = records.Slice(off, off+take).AppendTo(out)
		off += take
	}
	return out, uint64(si)<<32 | uint64(off), si >= len(subsets), nil
}

// IngestBatch stores a batch of published sketches.  Admission runs in
// input order, repeats within the batch included: an identical re-publish
// is skipped, and a conflicting sketch (Corollary 3.4) or an invalid one
// stops admission of everything after it — Router.PublishAll's
// no-new-starts rule — while the records admitted before it still land.
//
// The one write path, with or without a store: under every touched ingest
// stripe — acquired in ascending order, so batches cannot deadlock each
// other — the table probes the whole batch under its read lock
// (Table.Probe); with a store attached, one store.AppendBatch call carries
// the admitted records (one commit window per touched shard); then exactly
// the records the store made durable land, each subset's as one sorted run
// merged into its column (Table.Land).  Nothing of a batch is visible
// before it is durable, and nothing is ever rolled back.  A store error
// wins over the conflict, being the earlier failure — every admitted
// record precedes the conflict.
func (e *Engine) IngestBatch(ps []sketch.Published) error {
	var touched [ingestStripes]bool
	for _, p := range ps {
		touched[uint64(p.ID)%ingestStripes] = true
	}
	for i := range e.ingestMu {
		if touched[i] {
			e.ingestMu[i].Lock()
		}
	}
	defer func() {
		for i := range e.ingestMu {
			if touched[i] {
				e.ingestMu[i].Unlock()
			}
		}
	}()

	b, err := e.table.Probe(ps)
	if e.st != nil && b.Len() > 0 {
		failed, aerr := e.st.AppendBatch(b.Records())
		if aerr != nil && len(failed) == 0 {
			// The store's contract names what failed; a store that names
			// nothing may have lost anything, so nothing is acknowledged.
			return aerr
		}
		b.Drop(failed)
		if aerr != nil {
			err = aerr
		}
	}
	stored := e.table.Land(b)
	if e.m != nil {
		e.m.ingests.Add(uint64(stored))
	}
	return err
}

// Sketches returns the total number of stored sketches.
func (e *Engine) Sketches() int { return e.table.Len() }

// Subsets returns the subsets for which at least one sketch is stored.
func (e *Engine) Subsets() []bitvec.Subset { return e.table.Subsets() }

// Conjunction answers the basic Algorithm 2 query.
func (e *Engine) Conjunction(b bitvec.Subset, v bitvec.Vector) (query.Estimate, error) {
	return e.est.Fraction(e.Source(nil), b, v)
}

// Source returns the engine as a plan source restricted to the records
// whose user passes keep (nil: all records): plan execution routed through
// the engine's one-pass batch executor and bitmap cache.  The gateway's
// single-node mode passes a tenant's domain filter.
func (e *Engine) Source(keep *query.UserFilter) query.PartialSource {
	return engineSource{e: e, keep: keep}
}

// ConjunctionLiterals answers a conjunction given as literals, using exact
// subsets when available and Appendix F gluing otherwise.
func (e *Engine) ConjunctionLiterals(c bitvec.Conjunction) (query.Estimate, error) {
	return e.est.ConjunctionFraction(e.Source(nil), c)
}

// UnionConjunction answers a conjunction over the union of several sketched
// subsets (Appendix F).
func (e *Engine) UnionConjunction(subs []query.SubQuery) (query.Estimate, error) {
	return e.est.UnionConjunction(e.Source(nil), subs)
}

// ExactlyOfK answers "exactly l of these k sub-queries hold".
func (e *Engine) ExactlyOfK(subs []query.SubQuery, l int) (query.Estimate, error) {
	return e.est.ExactlyOfK(e.Source(nil), subs, l)
}

// FieldMean answers the Section 4.1 mean query for an integer field.
func (e *Engine) FieldMean(f bitvec.IntField) (query.NumericEstimate, error) {
	return e.est.FieldMean(e.Source(nil), f)
}

// FieldAtMost answers the Section 4.1 interval query value ≤ c.
func (e *Engine) FieldAtMost(f bitvec.IntField, c uint64) (query.NumericEstimate, error) {
	return e.est.FieldAtMost(e.Source(nil), f, c)
}

// DecisionTree answers the Section 4.1 decision-tree query.
func (e *Engine) DecisionTree(tree *query.TreeNode) (query.NumericEstimate, error) {
	return e.est.DecisionTreeFraction(e.Source(nil), tree)
}

// SumLessThanPow2 answers the Appendix E query a + b < 2^r.
func (e *Engine) SumLessThanPow2(a, b bitvec.IntField, r int) (query.NumericEstimate, error) {
	return e.est.SumLessThanPow2(e.table, a, b, r)
}
