package gateway

import (
	"fmt"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
)

// Backend is what the gateway fronts: either a cluster router (fleet mode)
// or a single in-process engine (development and edge deployments).  Both
// expose the same two things the HTTP layer needs — batched publishing and
// a per-domain query.PartialSource, so every estimator runs identically in
// both modes and a tenant's domain restriction rides every code path.
type Backend interface {
	// PublishAll ingests a batch of records (already rewritten into the
	// publishing tenant's id domain).
	PublishAll(ps []sketch.Published) error
	// Source returns a PartialSource restricted to the domain; the zero
	// domain means no restriction.
	Source(d cluster.Domain) query.PartialSource
	// Estimator returns the shared Algorithm 2 estimator.
	Estimator() *query.Estimator
	// TotalRecords counts the records in the domain.
	TotalRecords(d cluster.Domain) (uint64, error)
	// Healthy returns nil when the backend can currently answer queries.
	Healthy() error
	// Status renders a human-readable backend status (admin stats).
	Status() string
}

// AdminBackend is the optional membership surface: a backend that can grow,
// shrink and report on a cluster.  The engine backend does not implement
// it, and the gateway answers those routes 404 in single-node mode.
type AdminBackend interface {
	Join(addr string) error
	Drain(addr string) error
	RebalanceStatus() string
}

// FanoutCounterSource is the optional robustness-counter surface exported
// on /metrics when the backend is a router.
type FanoutCounterSource interface {
	FanoutCounters() cluster.FanoutCounters
}

// RouterBackend fronts a cluster.Router.
type RouterBackend struct{ R *cluster.Router }

// PublishAll implements Backend via the router's replicated batch publish.
func (b RouterBackend) PublishAll(ps []sketch.Published) error { return b.R.PublishAll(ps) }

// Source implements Backend via the router's domain-restricted fan-out view.
func (b RouterBackend) Source(d cluster.Domain) query.PartialSource { return b.R.DomainSource(d) }

// Estimator implements Backend.
func (b RouterBackend) Estimator() *query.Estimator { return b.R.Estimator() }

// TotalRecords implements Backend with one counting fan-out.
func (b RouterBackend) TotalRecords(d cluster.Domain) (uint64, error) {
	return b.R.DomainSource(d).TotalRecords()
}

// Healthy implements Backend: a router is healthy while any node answers
// pings — queries may still degrade loudly, but the front door is up.
func (b RouterBackend) Healthy() error {
	if len(b.R.LiveNodes()) == 0 {
		return fmt.Errorf("gateway: no live cluster nodes")
	}
	return nil
}

// Status implements Backend with the router's aggregated cluster report.
func (b RouterBackend) Status() string { return b.R.Status() }

// Join implements AdminBackend.
func (b RouterBackend) Join(addr string) error { return b.R.Join(addr) }

// Drain implements AdminBackend.
func (b RouterBackend) Drain(addr string) error { return b.R.Drain(addr) }

// RebalanceStatus implements AdminBackend.
func (b RouterBackend) RebalanceStatus() string { return b.R.RebalanceStatus() }

// FanoutCounters implements FanoutCounterSource.
func (b RouterBackend) FanoutCounters() cluster.FanoutCounters { return b.R.FanoutCounters() }

// EngineBackend fronts a single in-process engine: the gateway's
// single-node mode.  A domain restriction becomes the keep filter of the
// engine's cached plan executor, so tenancy semantics are identical to
// fleet mode and caching still applies: H runs only on the records the
// domain keeps (its keep mask, cached under the domain's own key, as a
// fleet node caches its ownership masks), and each evaluation bitmap holds
// one bit per kept record, cached under that key too.
type EngineBackend struct{ E *engine.Engine }

// PublishAll implements Backend via the engine's batched ingest.
func (b EngineBackend) PublishAll(ps []sketch.Published) error { return b.E.IngestBatch(ps) }

// Source implements Backend: the engine's source, filtered to the domain.
func (b EngineBackend) Source(d cluster.Domain) query.PartialSource {
	return b.E.Source(d.Filter())
}

// Estimator implements Backend.
func (b EngineBackend) Estimator() *query.Estimator { return b.E.Estimator() }

// TotalRecords implements Backend with a local filtered count.
func (b EngineBackend) TotalRecords(d cluster.Domain) (uint64, error) {
	return b.Source(d).TotalRecords()
}

// Healthy implements Backend; an in-process engine is always reachable.
func (b EngineBackend) Healthy() error { return nil }

// Status implements Backend.
func (b EngineBackend) Status() string {
	return fmt.Sprintf("single-node engine: %d sketches, %d subsets", b.E.Sketches(), len(b.E.Subsets()))
}
