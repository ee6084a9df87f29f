// Package gateway is the cluster's HTTP/JSON front door: a multi-tenant
// REST layer over the binary sketch protocol, so curl, browsers and
// ordinary HTTP clients can publish sketches and run every estimator
// without speaking the bespoke wire format.
//
// The gateway fronts either a cluster.Router (fleet mode) or a single
// engine.Engine through the Backend interface, which supplies records;
// the gateway debiases with its own query.Estimator, built from the H in
// Config.Hash.  Each query kind is a planner in one registry: it compiles
// the request onto a query.Plan and returns a finisher, and
// Gateway.answer alone executes — one src.Execute per request, so one
// plan fan-out round trip over the cluster for every kind.
//
// Multi-tenancy is first-class.  API keys load from a reloadable JSON
// keyring; each tenant is assigned a user-id domain — a high-bit prefix
// derived from the master generator key via the PRF's key-derivation
// construction — and every id a tenant supplies is rewritten into its
// domain (cluster.Domain.ID, the one place the layout is written) before
// anything is sketched or counted.  Because the PRF input
// tuple begins with the user id, H restricted to disjoint id prefixes
// behaves as independent random functions: tenants' sketches are
// cryptographically disjoint, and a tenant's queries carry its domain in
// every ownership filter, so numerators and denominators alike never
// touch another tenant's records.
//
// Load is shed loudly, never queued unboundedly: per-tenant token-bucket
// rate limits and record quotas answer 429 with a typed JSON error and a
// Retry-After, and a global in-flight cap answers 503 — mirroring the
// node server's MaxInFlight semantics.  /healthz and the Prometheus-style
// /metrics endpoint stay outside the cap, so operators can see a
// saturated gateway instead of timing out on it.
package gateway
