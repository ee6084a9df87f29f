package cluster

import (
	"encoding/binary"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
)

// Domain names one tenant's slice of the 64-bit user-id space: the ids
// whose top Bits bits equal Tag.  The zero Domain imposes no restriction —
// every pre-tenancy caller routes through it unchanged.
//
// Domains are how multi-tenancy stays sound under the paper's keyed-PRF
// model without giving every tenant its own cluster: the PRF H is keyed
// once per deployment, but its input tuple starts with the user id, so H
// restricted to disjoint id prefixes behaves as independent random
// functions — one per tenant, cryptographically disjoint.  The gateway
// derives each tenant's Tag from the master generator key (HKDF-style,
// via prf.Func.DeriveKey) and rewrites every tenant-supplied id into its
// domain before anything is sketched, published or counted.
type Domain struct {
	// Bits is the prefix width; zero disables the restriction.
	Bits uint8
	// Tag is the required prefix value, right-aligned.
	Tag uint64
}

// Keep reports whether an id belongs to the domain.
func (d Domain) Keep(id bitvec.UserID) bool {
	return d.Bits == 0 || uint64(id)>>(64-uint(d.Bits)) == d.Tag
}

// Filter returns the domain as a record filter — nil for the zero Domain —
// whose Key is exactly the two fields Keep reads, so a tenant's keep masks
// are cached under it (query.UserFilter.Key) and no other domain's can be
// served in their place.  A single engine behind the gateway filters by it;
// a cluster node compiles the same restriction into its ownership filter
// (CompileFilter), whose 32-byte FilterKey this 9-byte key cannot equal.
func (d Domain) Filter() *query.UserFilter {
	if d.Bits == 0 {
		return nil
	}
	key := binary.BigEndian.AppendUint64([]byte{d.Bits}, d.Tag)
	return &query.UserFilter{Keep: d.Keep, Key: string(key)}
}

// TotalRecords implements query.PartialSource: a total-only plan, so the
// count shares the plan fan-out's deadline budget, hedging and replica
// recovery.
func (r *Router) TotalRecords() (uint64, error) { return query.TotalRecordsVia(r.Execute) }

// domainSource is a query.PartialSource view of the router restricted to
// one tenant domain: every fan-out it issues carries the domain in its
// ownership filters, so nodes count only the tenant's records — numerators
// and denominators both.  Estimators run over it unchanged.
type domainSource struct {
	r *Router
	d Domain
}

// DomainSource returns the router as a PartialSource restricted to d.
// The zero domain returns the router itself (no restriction, and no
// wrapper in the hot path).
func (r *Router) DomainSource(d Domain) query.PartialSource {
	if d.Bits == 0 {
		return r
	}
	return domainSource{r: r, d: d}
}

func (s domainSource) TotalRecords() (uint64, error) { return query.TotalRecordsVia(s.Execute) }

func (s domainSource) Execute(p *query.Plan) (*query.Results, error) {
	return s.r.executeDomain(s.d, p)
}

// FanoutCounters is a machine-readable snapshot of the router's fan-out
// robustness counters — the same numbers Status renders as text — so the
// gateway's /metrics endpoint can export them without parsing strings.
type FanoutCounters struct {
	// Retries counts full fan-out restarts (stale epochs, unrecoverable
	// mid-fan-out failures).
	Retries uint64
	// Recoveries counts replica-aware recovery rounds launched inside a
	// fan-out attempt.
	Recoveries uint64
	// Hedges counts recoveries triggered by the hedge timer rather than a
	// hard failure.
	Hedges uint64
	// Refusals counts typed partial-coverage refusals returned to callers.
	Refusals uint64
}

// FanoutCounters returns the router's current fan-out counters.
func (r *Router) FanoutCounters() FanoutCounters {
	return FanoutCounters{
		Retries:    r.fo.retries.Load(),
		Recoveries: r.fo.recoveries.Load(),
		Hedges:     r.fo.hedges.Load(),
		Refusals:   r.fo.refusals.Load(),
	}
}
