package gateway

import (
	"fmt"
	"math"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
)

// apiError is the typed JSON error envelope every non-2xx answer carries.
// Code is machine-readable and stable; clients branch on it, not on the
// message.  RetryAfterMS accompanies the shedding codes so clients can
// back off without parsing headers.
type apiError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// errorResponse wraps apiError under an "error" key, the envelope shape.
type errorResponse struct {
	Error apiError `json:"error"`
}

// Stable error codes.
const (
	codeUnauthorized     = "unauthorized"       // 401: missing or unknown API key
	codeForbidden        = "forbidden"          // 403: key lacks the admin grant
	codeRateLimited      = "rate_limited"       // 429: tenant token bucket empty
	codeQuotaExceeded    = "quota_exceeded"     // 429: tenant record quota reached
	codeOverloaded       = "overloaded"         // 503: global in-flight cap hit
	codeUnavailable      = "unavailable"        // 503: backend cannot answer
	codeBadRequest       = "bad_request"        // 400: malformed JSON or shapes
	codeNotFound         = "not_found"          // 404: unknown route/estimator
	codeQueryFailed      = "query_failed"       // 502: backend refused the query
	codeMethodNotAllowed = "method_not_allowed" // 405
)

// recordJSON is one record of a publish batch.  Exactly one of Profile and
// Sketch must be set: Profile asks the gateway to run Algorithm 1 on the
// caller's behalf (a trusted-edge convenience — the bits do transit this
// request), while Sketch publishes a key the caller sketched locally so
// profile bits never leave their machine, the paper's intended deployment.
// IDs are tenant-relative; the gateway rewrites them into the tenant's
// domain.
type recordJSON struct {
	ID      uint64      `json:"id"`
	Subset  []int       `json:"subset"`
	Profile string      `json:"profile,omitempty"`
	Sketch  *sketchJSON `json:"sketch,omitempty"`
}

// sketchJSON is the wire shape of a locally-computed sketch key.
type sketchJSON struct {
	Key    uint64 `json:"key"`
	Length int    `json:"length"`
}

// publishRequest is the body of POST /v1/records.
type publishRequest struct {
	Records []recordJSON `json:"records"`
}

// publishResponse reports an accepted batch.
type publishResponse struct {
	Published   int    `json:"published"`
	RecordsUsed uint64 `json:"records_used"`
}

// tenantResponse is GET /v1/tenant: everything a client needs to sketch
// locally and stay inside its domain — the mechanism parameters and the
// tenant's id-domain coordinates.
type tenantResponse struct {
	Name        string  `json:"name"`
	DomainBits  uint8   `json:"domain_bits"`
	DomainTag   uint64  `json:"domain_tag"`
	MaxUserID   uint64  `json:"max_user_id"`
	P           float64 `json:"p"`
	Length      int     `json:"length"`
	RecordsUsed uint64  `json:"records_used"`
	MaxRecords  uint64  `json:"max_records"`
}

// subQueryJSON is one sketched-subset/value component of a combined query.
type subQueryJSON struct {
	Subset []int  `json:"subset"`
	Value  string `json:"value"`
}

// fieldJSON names a k-bit integer attribute by its bit layout.
type fieldJSON struct {
	Offset int `json:"offset"`
	Width  int `json:"width"`
}

// treeJSON is the recursive decision-tree shape.  Leaves set "leaf" and
// "accept"; internal nodes set "attr", "zero" and "one".
type treeJSON struct {
	Leaf   bool      `json:"leaf,omitempty"`
	Accept bool      `json:"accept,omitempty"`
	Attr   int       `json:"attr,omitempty"`
	Zero   *treeJSON `json:"zero,omitempty"`
	One    *treeJSON `json:"one,omitempty"`
}

// queryRequest is the union body of every POST /v1/query/{kind} endpoint;
// each estimator reads the fields it needs and rejects requests missing
// them, so one decoder serves the whole family.
type queryRequest struct {
	Subset     []int          `json:"subset,omitempty"`
	Value      string         `json:"value,omitempty"`
	SubQueries []subQueryJSON `json:"subqueries,omitempty"`
	L          int            `json:"l,omitempty"`
	Field      *fieldJSON     `json:"field,omitempty"`
	C          uint64         `json:"c,omitempty"`
	Lo         uint64         `json:"lo,omitempty"`
	Hi         uint64         `json:"hi,omitempty"`
	Tree       *treeJSON      `json:"tree,omitempty"`
}

// estimateResponse is the JSON shape of a frequency estimate.  Observed
// is absent for combined estimators (inclusion–exclusion, histogram,
// tree), which have no single observed fraction: query.Estimate marks
// that with NaN, which JSON cannot carry.
type estimateResponse struct {
	Fraction float64  `json:"fraction"`
	Raw      float64  `json:"raw"`
	Observed *float64 `json:"observed,omitempty"`
	Users    int      `json:"users"`
	P        float64  `json:"p"`
	Count    float64  `json:"count"`
}

// numericResponse is the JSON shape of a numeric estimate.
type numericResponse struct {
	Value   float64 `json:"value"`
	Users   int     `json:"users"`
	Queries int     `json:"queries"`
}

// statsResponse is GET /v1/stats: the tenant's own view, plus the backend
// status text for admin tenants.
type statsResponse struct {
	Tenant        string `json:"tenant"`
	RecordsUsed   uint64 `json:"records_used"`
	MaxRecords    uint64 `json:"max_records"`
	TenantRecords uint64 `json:"tenant_records"`
	Backend       string `json:"backend,omitempty"`
}

// toEstimate converts a query.Estimate for the wire.
func toEstimate(e query.Estimate) estimateResponse {
	resp := estimateResponse{
		Fraction: e.Fraction,
		Raw:      e.Raw,
		Users:    e.Users,
		P:        e.P,
		Count:    e.Count(),
	}
	if !math.IsNaN(e.Observed) && !math.IsInf(e.Observed, 0) {
		obs := e.Observed
		resp.Observed = &obs
	}
	return resp
}

// toNumeric converts a query.NumericEstimate for the wire.
func toNumeric(n query.NumericEstimate) numericResponse {
	return numericResponse{Value: n.Value, Users: n.Users, Queries: n.Queries}
}

// parseSubsetJSON validates attribute positions into a bitvec.Subset.
func parseSubsetJSON(positions []int) (bitvec.Subset, error) {
	if len(positions) == 0 {
		return bitvec.Subset{}, fmt.Errorf("subset must list at least one attribute position")
	}
	return bitvec.NewSubset(positions...)
}

// parseSubsetValueJSON validates a subset and a bit-string value of its
// size.
func parseSubsetValueJSON(positions []int, value string) (bitvec.Subset, bitvec.Vector, error) {
	sub, err := parseSubsetJSON(positions)
	if err != nil {
		return bitvec.Subset{}, bitvec.Vector{}, err
	}
	v, err := bitvec.FromString(value)
	if err != nil {
		return bitvec.Subset{}, bitvec.Vector{}, err
	}
	if v.Len() != sub.Len() {
		return bitvec.Subset{}, bitvec.Vector{}, fmt.Errorf("value has %d bits but the subset has %d positions", v.Len(), sub.Len())
	}
	return sub, v, nil
}

// parseSubQueriesJSON validates a combined query's components.
func parseSubQueriesJSON(subs []subQueryJSON) ([]query.SubQuery, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("subqueries must list at least one component")
	}
	out := make([]query.SubQuery, len(subs))
	for i, s := range subs {
		sub, v, err := parseSubsetValueJSON(s.Subset, s.Value)
		if err != nil {
			return nil, fmt.Errorf("subquery %d: %w", i, err)
		}
		out[i] = query.SubQuery{Subset: sub, Value: v}
	}
	return out, nil
}

// parseFieldJSON validates a field's bit layout.
func parseFieldJSON(f *fieldJSON) (bitvec.IntField, error) {
	if f == nil {
		return bitvec.IntField{}, fmt.Errorf("query requires a field {offset, width}")
	}
	return bitvec.NewIntField(f.Offset, f.Width)
}

// parseTreeJSON converts the recursive JSON tree and validates it.
func parseTreeJSON(t *treeJSON) (*query.TreeNode, error) {
	if t == nil {
		return nil, fmt.Errorf("query requires a tree")
	}
	node, err := buildTree(t, 0)
	if err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	return node, nil
}

// maxTreeDepth bounds request trees so a hostile payload cannot recurse
// the decoder or compile an exponential plan.
const maxTreeDepth = 24

func buildTree(t *treeJSON, depth int) (*query.TreeNode, error) {
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("tree deeper than %d levels", maxTreeDepth)
	}
	if t.Leaf {
		return query.Leaf(t.Accept), nil
	}
	if t.Zero == nil || t.One == nil {
		return nil, fmt.Errorf("internal node for attribute %d is missing a child", t.Attr)
	}
	zero, err := buildTree(t.Zero, depth+1)
	if err != nil {
		return nil, err
	}
	one, err := buildTree(t.One, depth+1)
	if err != nil {
		return nil, err
	}
	return query.Node(t.Attr, zero, one), nil
}

// parseRecord converts one publish-batch record into the tenant's domain,
// sketching profile-bearing records with the gateway's sketcher.  sub is
// the record's already-parsed subset (see publishScratch.subsetFor).
func (g *Gateway) parseRecord(t *Tenant, rec *recordJSON, sub bitvec.Subset) (sketch.Published, error) {
	eff, err := t.EffectiveID(rec.ID)
	if err != nil {
		return sketch.Published{}, err
	}
	id := bitvec.UserID(eff)
	switch {
	case rec.Sketch != nil && rec.Profile != "":
		return sketch.Published{}, fmt.Errorf("record %d sets both profile and sketch; send exactly one", rec.ID)
	case rec.Sketch != nil:
		s := sketch.Sketch{Key: rec.Sketch.Key, Length: rec.Sketch.Length}
		if !s.Valid() {
			return sketch.Published{}, fmt.Errorf("record %d: invalid sketch key %d for length %d", rec.ID, s.Key, s.Length)
		}
		if s.Length != g.params.Length {
			return sketch.Published{}, fmt.Errorf("record %d: sketch length %d does not match the deployment's ℓ=%d", rec.ID, s.Length, g.params.Length)
		}
		return sketch.Published{ID: id, Subset: sub, S: s}, nil
	case rec.Profile != "":
		data, err := bitvec.FromString(rec.Profile)
		if err != nil {
			return sketch.Published{}, fmt.Errorf("record %d: bad profile: %w", rec.ID, err)
		}
		s, err := g.sketchProfile(bitvec.Profile{ID: id, Data: data}, sub)
		if err != nil {
			return sketch.Published{}, fmt.Errorf("record %d: %w", rec.ID, err)
		}
		return sketch.Published{ID: id, Subset: sub, S: s}, nil
	default:
		return sketch.Published{}, fmt.Errorf("record %d sets neither profile nor sketch", rec.ID)
	}
}
