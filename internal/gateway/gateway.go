package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// DefaultMaxBatch caps the records of one publish request; larger batches
// should be split so a single tenant cannot park an unbounded body behind
// the in-flight cap.
const DefaultMaxBatch = 1024

// maxBodyBytes bounds request bodies before the JSON decoder sees them.
const maxBodyBytes = 8 << 20

// Config assembles a Gateway.
type Config struct {
	// Backend answers publishes and queries (required).
	Backend Backend
	// Admin enables the membership endpoints; nil answers them 404.
	Admin AdminBackend
	// Keyring authenticates tenants (required).
	Keyring *Keyring
	// Params are the mechanism parameters (p, ℓ) the deployment runs.
	Params sketch.Params
	// Hash is the public function H, used to sketch profile-bearing
	// publishes on the caller's behalf (required).
	Hash prf.BitSource
	// MaxInFlight caps concurrently-served requests; past it requests are
	// shed with a typed 503, mirroring the node server's semantics.
	// Zero disables the cap.
	MaxInFlight int
	// MaxBatch caps records per publish request (default DefaultMaxBatch).
	MaxBatch int
	// Seed seeds the Algorithm 1 rejection sampler for gateway-side
	// sketching; zero derives a fixed seed (fine: the sampler's
	// randomness affects only which valid key is published).
	Seed uint64
	// Logf receives one line per shed or refused request; nil uses the
	// standard logger.  Shedding is loud by design.
	Logf func(format string, args ...any)
	// Obs is the metrics registry /metrics renders; nil creates a private
	// one.  sketchgate passes its process registry here so the gateway's
	// series share one exposition with everything else the daemon records.
	Obs *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// gateway's mux.  Off by default: the profiler is operator-only.
	EnablePprof bool
}

// Gateway is the HTTP front door: routing, authentication, limiting and
// the JSON codecs around a Backend.  Construct with New, serve Handler().
type Gateway struct {
	backend Backend
	admin   AdminBackend
	keyring *Keyring
	params  sketch.Params
	logf    func(format string, args ...any)

	flight      *inflight
	maxBatch    int
	metrics     *metrics
	reg         *obs.Registry
	enablePprof bool

	mu       sync.Mutex // guards sketcher's RNG
	sketcher *sketch.Sketcher
	rng      *stats.RNG
}

// New validates the configuration and builds a gateway.
func New(cfg Config) (*Gateway, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("gateway: Config.Backend is required")
	}
	if cfg.Keyring == nil {
		return nil, fmt.Errorf("gateway: Config.Keyring is required")
	}
	if cfg.Hash == nil {
		return nil, fmt.Errorf("gateway: Config.Hash is required")
	}
	sk, err := sketch.NewSketcher(cfg.Hash, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	maxBatch := cfg.MaxBatch
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &Gateway{
		backend:     cfg.Backend,
		admin:       cfg.Admin,
		keyring:     cfg.Keyring,
		params:      cfg.Params,
		logf:        logf,
		flight:      &inflight{limit: int64(cfg.MaxInFlight)},
		maxBatch:    maxBatch,
		metrics:     newMetrics(),
		reg:         reg,
		enablePprof: cfg.EnablePprof,
		sketcher:    sk,
		rng:         stats.NewRNG(seed),
	}
	g.metrics.register(reg, g)
	return g, nil
}

// sketchProfile runs Algorithm 1 under the gateway's lock (the rejection
// sampler's RNG is not concurrency-safe).
func (g *Gateway) sketchProfile(p bitvec.Profile, b bitvec.Subset) (sketch.Sketch, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sketcher.Sketch(g.rng, p, b)
}

// Handler returns the gateway's routed HTTP handler.  /healthz and
// /metrics bypass authentication and the in-flight cap, so a saturated or
// unhealthy gateway stays observable.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.metricsHandler())
	if g.enablePprof {
		obs.MountPprof(mux)
	}

	mux.Handle("POST /v1/records", g.guard(false, g.handlePublish))
	mux.Handle("GET /v1/tenant", g.guard(false, g.handleTenant))
	mux.Handle("GET /v1/stats", g.guard(false, g.handleStats))
	mux.Handle("POST /v1/query/{kind}", g.guard(false, g.handleQuery))

	mux.Handle("POST /v1/admin/join", g.guard(true, g.handleJoin))
	mux.Handle("POST /v1/admin/drain", g.guard(true, g.handleDrain))
	mux.Handle("GET /v1/admin/rebalance-status", g.guard(true, g.handleRebalanceStatus))
	mux.Handle("POST /v1/admin/reload-keys", g.guard(true, g.handleReloadKeys))

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		g.writeError(w, http.StatusNotFound, apiError{Code: codeNotFound, Message: "unknown route " + r.URL.Path})
	})
	return mux
}

// tenantHandler is a request handler that has passed admission and auth.
type tenantHandler func(w http.ResponseWriter, r *http.Request, t *Tenant)

// guard is the middleware chain every API route runs behind, in shedding
// order: the global in-flight cap first (cheapest refusal, before any
// body is read), then authentication, then the admin grant, then the
// tenant's token bucket.  Each refusal is typed, counted and logged.
func (g *Gateway) guard(needAdmin bool, h tenantHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.metrics.requests.Add(1)
		if !g.flight.acquire() {
			g.metrics.shedOverload.Add(1)
			g.logf("gateway: shed %s %s: in-flight cap reached", r.Method, r.URL.Path)
			g.writeError(w, http.StatusServiceUnavailable, apiError{
				Code:         codeOverloaded,
				Message:      "gateway at its in-flight request cap; retry with backoff",
				RetryAfterMS: 100,
			})
			return
		}
		defer g.flight.release()

		t, ok := g.authenticate(r)
		if !ok {
			g.metrics.authFailures.Add(1)
			g.logf("gateway: unauthorized %s %s", r.Method, r.URL.Path)
			g.writeError(w, http.StatusUnauthorized, apiError{
				Code:    codeUnauthorized,
				Message: "missing or unknown API key; send Authorization: Bearer <key>",
			})
			return
		}
		if needAdmin && !t.Admin {
			g.logf("gateway: tenant %s denied admin route %s", t.Name, r.URL.Path)
			g.writeError(w, http.StatusForbidden, apiError{
				Code:    codeForbidden,
				Message: "this API key lacks the admin grant",
			})
			return
		}
		if ok, retry := t.limiter.take(); !ok {
			g.metrics.tenant(t.Name).shedRate.Add(1)
			g.logf("gateway: rate-limited tenant %s on %s (retry in %v)", t.Name, r.URL.Path, retry)
			w.Header().Set("Retry-After", strconv.FormatInt(int64(retry/time.Second)+1, 10))
			g.writeError(w, http.StatusTooManyRequests, apiError{
				Code:         codeRateLimited,
				Message:      fmt.Sprintf("tenant %s exceeded its request rate", t.Name),
				RetryAfterMS: retry.Milliseconds() + 1,
			})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r, t)
	})
}

// authenticate resolves the request's API key: Authorization: Bearer is
// canonical; X-API-Key is accepted for curl convenience.
func (g *Gateway) authenticate(r *http.Request) (*Tenant, bool) {
	key := ""
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		key = strings.TrimPrefix(auth, "Bearer ")
	} else if h := r.Header.Get("X-API-Key"); h != "" {
		key = h
	}
	if key == "" {
		return nil, false
	}
	return g.keyring.Lookup(key)
}

// writeJSON writes a 200 JSON body.  An encode failure (e.g. a NaN from a
// degenerate estimate) cannot unsend the 200 header, but it is logged
// loudly instead of silently truncating the body.
func (g *Gateway) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		g.logf("gateway: encoding response %T: %v", v, err)
	}
}

// writeError writes the typed JSON error envelope.
func (g *Gateway) writeError(w http.ResponseWriter, status int, e apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: e})
}

// decode reads a JSON body, answering typed 400s for malformed payloads.
func (g *Gateway) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if err == io.EOF {
			err = fmt.Errorf("empty request body")
		}
		g.writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: err.Error()})
		return false
	}
	return true
}

// handleHealthz answers liveness outside the cap: 200 while the backend
// can serve, 503 with the reason otherwise.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := g.backend.Healthy(); err != nil {
		g.writeError(w, http.StatusServiceUnavailable, apiError{Code: codeUnavailable, Message: err.Error()})
		return
	}
	g.writeJSON(w, map[string]string{"status": "ok"})
}

// publishScratch is the per-request decode state handlePublish recycles
// across requests: the JSON decode target (whose per-record subset slices
// keep their backing arrays between requests) and the parsed batch slice.
// Publish is the gateway's hottest endpoint and the only one whose body
// scales with batch size, so it is the one worth a pool.  It also caches
// the last parsed subset: real batches overwhelmingly repeat one subset
// record after record, so the per-record NewSubset cost (a positions copy
// and a dedup map) collapses to a slice comparison.
type publishScratch struct {
	req   publishRequest
	batch []sketch.Published

	positions []int
	subset    bitvec.Subset
}

var publishPool = sync.Pool{New: func() any { return new(publishScratch) }}

// prepare readies the decode target for reuse.  Decoding JSON into a live
// struct only sets the keys present in the document, so every element
// within the backing array's capacity is cleared field-wise — a stale id,
// profile string or sketch pointer from the previous request must not leak
// into records that omit those keys — while each element's subset slice is
// truncated in place so the decoder refills its backing array.
func (s *publishScratch) prepare() {
	recs := s.req.Records[:cap(s.req.Records)]
	for i := range recs {
		r := &recs[i]
		r.ID = 0
		r.Subset = r.Subset[:0]
		r.Profile = ""
		r.Sketch = nil
	}
	s.req.Records = recs[:0]
	s.batch = s.batch[:0]
}

// subsetFor parses a record's subset positions, answering repeats of the
// previous record's positions from the cache.  Subsets are immutable, so
// records of one batch sharing the cached value is safe.
func (s *publishScratch) subsetFor(positions []int) (bitvec.Subset, error) {
	if len(positions) > 0 && slices.Equal(positions, s.positions) {
		return s.subset, nil
	}
	sub, err := parseSubsetJSON(positions)
	if err != nil {
		return bitvec.Subset{}, err
	}
	s.positions = append(s.positions[:0], positions...)
	s.subset = sub
	return sub, nil
}

// handlePublish ingests a batch: quota reservation first (whole-batch
// admission), then id rewriting and sketching, then one backend batch
// publish.  A failed publish returns the reservation, so backend errors
// never leak quota.
func (g *Gateway) handlePublish(w http.ResponseWriter, r *http.Request, t *Tenant) {
	scratch := publishPool.Get().(*publishScratch)
	defer publishPool.Put(scratch)
	scratch.prepare()
	req := &scratch.req
	if !g.decode(w, r, req) {
		return
	}
	if len(req.Records) == 0 {
		g.writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "records must list at least one record"})
		return
	}
	if len(req.Records) > g.maxBatch {
		g.writeError(w, http.StatusBadRequest, apiError{
			Code:    codeBadRequest,
			Message: fmt.Sprintf("batch of %d exceeds the %d-record limit; split it", len(req.Records), g.maxBatch),
		})
		return
	}
	n := uint64(len(req.Records))
	if ok, remaining := t.quota.tryAdd(n, t.MaxRecords); !ok {
		g.metrics.tenant(t.Name).shedQuota.Add(1)
		g.logf("gateway: quota refusal for tenant %s: %d requested, %d remaining of %d", t.Name, n, remaining, t.MaxRecords)
		g.writeError(w, http.StatusTooManyRequests, apiError{
			Code:    codeQuotaExceeded,
			Message: fmt.Sprintf("tenant %s record quota: %d remaining of %d, batch needs %d", t.Name, remaining, t.MaxRecords, n),
		})
		return
	}
	batch := scratch.batch
	for i := range req.Records {
		rec := &req.Records[i]
		sub, err := scratch.subsetFor(rec.Subset)
		if err != nil {
			t.quota.giveBack(n)
			g.writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: err.Error()})
			return
		}
		p, err := g.parseRecord(t, rec, sub)
		if err != nil {
			t.quota.giveBack(n)
			g.writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: err.Error()})
			return
		}
		batch = append(batch, p)
	}
	scratch.batch = batch
	if err := g.backend.PublishAll(batch); err != nil {
		t.quota.giveBack(n)
		g.logf("gateway: publish of %d records for tenant %s failed: %v", n, t.Name, err)
		g.writeError(w, http.StatusBadGateway, apiError{Code: codeQueryFailed, Message: err.Error()})
		return
	}
	g.metrics.tenant(t.Name).published.Add(n)
	g.writeJSON(w, publishResponse{Published: len(batch), RecordsUsed: t.RecordsUsed()})
}

// handleTenant describes the calling tenant: its domain coordinates and
// the mechanism parameters, everything a client needs to run Algorithm 1
// locally so profile bits never leave its machine.
func (g *Gateway) handleTenant(w http.ResponseWriter, r *http.Request, t *Tenant) {
	g.writeJSON(w, tenantResponse{
		Name:        t.Name,
		DomainBits:  t.Domain.Bits,
		DomainTag:   t.Domain.Tag,
		MaxUserID:   t.MaxUserID(),
		P:           g.params.P,
		Length:      g.params.Length,
		RecordsUsed: t.RecordsUsed(),
		MaxRecords:  t.MaxRecords,
	})
}

// handleStats reports the tenant's own record counts; admin tenants also
// get the backend's status text.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request, t *Tenant) {
	total, err := g.backend.Source(t.Domain).TotalRecords()
	if err != nil {
		g.writeError(w, http.StatusBadGateway, apiError{Code: codeQueryFailed, Message: err.Error()})
		return
	}
	resp := statsResponse{
		Tenant:        t.Name,
		RecordsUsed:   t.RecordsUsed(),
		MaxRecords:    t.MaxRecords,
		TenantRecords: total,
	}
	if t.Admin {
		resp.Backend = g.backend.Status()
	}
	g.writeJSON(w, resp)
}

// adminArg reads the {"node": "addr"} body of the membership endpoints.
func (g *Gateway) adminArg(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req struct {
		Node string `json:"node"`
	}
	if !g.decode(w, r, &req) {
		return "", false
	}
	if req.Node == "" {
		g.writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "body must name a node address"})
		return "", false
	}
	return req.Node, true
}

// requireAdminBackend answers 404 on membership routes in single-node mode.
func (g *Gateway) requireAdminBackend(w http.ResponseWriter) bool {
	if g.admin == nil {
		g.writeError(w, http.StatusNotFound, apiError{Code: codeNotFound, Message: "no cluster membership backend (single-node mode)"})
		return false
	}
	return true
}

// handleJoin adds a node and blocks until the rebalance cut over.
func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if !g.requireAdminBackend(w) {
		return
	}
	addr, ok := g.adminArg(w, r)
	if !ok {
		return
	}
	if err := g.admin.Join(addr); err != nil {
		g.writeError(w, http.StatusBadGateway, apiError{Code: codeQueryFailed, Message: err.Error()})
		return
	}
	g.writeJSON(w, map[string]string{"status": "joined", "node": addr})
}

// handleDrain removes a node and blocks until its records moved.
func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if !g.requireAdminBackend(w) {
		return
	}
	addr, ok := g.adminArg(w, r)
	if !ok {
		return
	}
	if err := g.admin.Drain(addr); err != nil {
		g.writeError(w, http.StatusBadGateway, apiError{Code: codeQueryFailed, Message: err.Error()})
		return
	}
	g.writeJSON(w, map[string]string{"status": "drained", "node": addr})
}

// handleRebalanceStatus reports live rebalance progress.
func (g *Gateway) handleRebalanceStatus(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if !g.requireAdminBackend(w) {
		return
	}
	g.writeJSON(w, map[string]string{"status": g.admin.RebalanceStatus()})
}

// handleReloadKeys re-reads the keyring file: key rotation without a
// restart.  Limiter and quota state survives (matched by tenant name).
func (g *Gateway) handleReloadKeys(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if err := g.keyring.Reload(); err != nil {
		g.logf("gateway: keyring reload failed, keeping previous keys: %v", err)
		g.writeError(w, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: err.Error()})
		return
	}
	g.logf("gateway: keyring reloaded by tenant %s (%d tenants)", t.Name, len(g.keyring.Tenants()))
	g.writeJSON(w, map[string]any{"status": "reloaded", "tenants": len(g.keyring.Tenants())})
}
