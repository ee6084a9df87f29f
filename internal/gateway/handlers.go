package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
)

// handleQuery dispatches POST /v1/query/{kind} through the estimator
// registry.  Every kind compiles onto the query.Plan path over the
// tenant's domain-restricted source, so one HTTP request costs one plan
// fan-out round trip over the cluster regardless of how many conjunctive
// sub-queries the estimator decomposes into.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request, t *Tenant) {
	kind := r.PathValue("kind")
	run, ok := estimators[kind]
	if !ok {
		g.writeError(w, http.StatusNotFound, apiError{
			Code:    codeNotFound,
			Message: fmt.Sprintf("unknown estimator %q; known kinds: %s", kind, estimatorKinds()),
		})
		return
	}
	var req queryRequest
	if !g.decode(w, r, &req) {
		return
	}
	g.metrics.tenant(t.Name).queries.Add(1)
	src := g.backend.Source(t.Domain)
	resp, err := run(g.backend.Estimator(), src, &req)
	if err != nil {
		status, code := http.StatusBadGateway, codeQueryFailed
		if errors.Is(err, errBadQuery) || errors.Is(err, query.ErrMismatch) {
			status, code = http.StatusBadRequest, codeBadRequest
		} else if errors.Is(err, query.ErrNoSketches) {
			// The tenant has published nothing matching the query's
			// subsets — a client-shape condition, not a backend fault.
			status, code = http.StatusUnprocessableEntity, codeQueryFailed
		}
		g.logf("gateway: query %s for tenant %s failed: %v", kind, t.Name, err)
		g.writeError(w, status, apiError{Code: code, Message: err.Error()})
		return
	}
	g.writeJSON(w, resp)
}

// errBadQuery marks request-shape errors detected before the estimator
// runs, so the dispatcher can answer 400 rather than 502.
var errBadQuery = errors.New("bad query request")

// badQuery wraps a shape error with the errBadQuery marker.
func badQuery(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errBadQuery, err)
}

// estimatorFunc runs one query kind over a tenant-restricted source and
// returns its JSON response body.
type estimatorFunc func(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error)

// estimators is the query registry: route suffix → estimator.  Every entry
// asks est.X(src, …), which compiles the estimator's whole conjunctive
// decomposition into one plan and executes it with a single src.Execute
// call.
var estimators = map[string]estimatorFunc{
	"fraction":        queryFraction,
	"conjunction":     queryConjunction,
	"union":           queryUnion,
	"none-of":         queryNoneOf,
	"exactly-of-k":    queryExactlyOfK,
	"at-least-of-k":   queryAtLeastOfK,
	"field-mean":      queryFieldMean,
	"field-sum":       queryFieldSum,
	"field-less-than": queryFieldLessThan,
	"field-at-most":   queryFieldAtMost,
	"interval":        queryInterval,
	"tree":            queryTree,
}

// estimatorKinds renders the registry's keys, sorted, for the 404 message.
func estimatorKinds() string {
	names := make([]string, 0, len(estimators))
	for k := range estimators {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// queryFraction answers the basic Algorithm 2 estimate I(B, v).
func queryFraction(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	sub, err := parseSubsetJSON(req.Subset)
	if err != nil {
		return nil, badQuery(err)
	}
	v, err := parseValueJSON(req.Value, sub)
	if err != nil {
		return nil, badQuery(err)
	}
	e, err := est.Fraction(src, sub, v)
	if err != nil {
		return nil, err
	}
	return toEstimate(e), nil
}

// queryConjunction answers a conjunction of literals over a sketched
// subset (the subset/value form sketchctl uses).
func queryConjunction(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	sub, err := parseSubsetJSON(req.Subset)
	if err != nil {
		return nil, badQuery(err)
	}
	v, err := parseValueJSON(req.Value, sub)
	if err != nil {
		return nil, badQuery(err)
	}
	e, err := est.ConjunctionFraction(src, bitvec.ConjunctionOf(sub, v))
	if err != nil {
		return nil, err
	}
	return toEstimate(e), nil
}

// queryUnion answers P[∨ᵢ (Bᵢ = vᵢ)] by inclusion–exclusion over the
// match histogram.
func queryUnion(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	subs, err := parseSubQueriesJSON(req.SubQueries)
	if err != nil {
		return nil, badQuery(err)
	}
	e, err := est.UnionConjunction(src, subs)
	if err != nil {
		return nil, err
	}
	return toEstimate(e), nil
}

// queryNoneOf answers P[∧ᵢ (Bᵢ ≠ vᵢ)].
func queryNoneOf(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	subs, err := parseSubQueriesJSON(req.SubQueries)
	if err != nil {
		return nil, badQuery(err)
	}
	e, err := est.NoneOf(src, subs)
	if err != nil {
		return nil, err
	}
	return toEstimate(e), nil
}

// queryExactlyOfK answers P[exactly l of the k sub-queries match].
func queryExactlyOfK(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	subs, err := parseSubQueriesJSON(req.SubQueries)
	if err != nil {
		return nil, badQuery(err)
	}
	e, err := est.ExactlyOfK(src, subs, req.L)
	if err != nil {
		return nil, err
	}
	return toEstimate(e), nil
}

// queryAtLeastOfK answers P[at least l of the k sub-queries match].
func queryAtLeastOfK(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	subs, err := parseSubQueriesJSON(req.SubQueries)
	if err != nil {
		return nil, badQuery(err)
	}
	e, err := est.AtLeastOfK(src, subs, req.L)
	if err != nil {
		return nil, err
	}
	return toEstimate(e), nil
}

// queryFieldMean answers E[field] via the Section 4.1 per-bit
// decomposition.
func queryFieldMean(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	f, err := parseFieldJSON(req.Field)
	if err != nil {
		return nil, badQuery(err)
	}
	n, err := est.FieldMean(src, f)
	if err != nil {
		return nil, err
	}
	return toNumeric(n), nil
}

// queryFieldSum answers the estimated population sum of the field.
func queryFieldSum(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	f, err := parseFieldJSON(req.Field)
	if err != nil {
		return nil, badQuery(err)
	}
	n, err := est.FieldSum(src, f)
	if err != nil {
		return nil, err
	}
	return toNumeric(n), nil
}

// queryFieldLessThan answers P[field < c] via the prefix decomposition.
func queryFieldLessThan(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	f, err := parseFieldJSON(req.Field)
	if err != nil {
		return nil, badQuery(err)
	}
	n, err := est.FieldLessThan(src, f, req.C)
	if err != nil {
		return nil, err
	}
	return toNumeric(n), nil
}

// queryFieldAtMost answers P[field ≤ c].
func queryFieldAtMost(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	f, err := parseFieldJSON(req.Field)
	if err != nil {
		return nil, badQuery(err)
	}
	n, err := est.FieldAtMost(src, f, req.C)
	if err != nil {
		return nil, err
	}
	return toNumeric(n), nil
}

// queryInterval answers P[lo ≤ field ≤ hi] as P[≤ hi] − P[< lo].  Both
// prefix decompositions are planned into ONE plan and executed with one
// src.Execute call, so an interval still costs a single fan-out round
// trip — the acceptance bar this endpoint is frame-count-tested against.
func queryInterval(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	f, err := parseFieldJSON(req.Field)
	if err != nil {
		return nil, badQuery(err)
	}
	if req.Lo > req.Hi {
		return nil, badQuery(fmt.Errorf("interval lo %d exceeds hi %d", req.Lo, req.Hi))
	}
	if req.Hi > f.Max() {
		return nil, badQuery(fmt.Errorf("interval hi %d exceeds the %d-bit field maximum %d", req.Hi, f.Width, f.Max()))
	}
	p := query.NewPlan()
	finHi, err := est.PlanFieldAtMost(p, f, req.Hi)
	if err != nil {
		return nil, err
	}
	var finLo query.NumericFinisher
	if req.Lo > 0 {
		finLo, err = est.PlanFieldLessThan(p, f, req.Lo)
		if err != nil {
			return nil, err
		}
	}
	res, err := src.Execute(p)
	if err != nil {
		return nil, err
	}
	hi, err := finHi(res)
	if err != nil {
		return nil, err
	}
	out := hi
	if finLo != nil {
		lo, err := finLo(res)
		if err != nil {
			return nil, err
		}
		out.Value -= lo.Value
		out.Queries += lo.Queries
	}
	return toNumeric(out), nil
}

// queryTree answers the accepting-fraction of a decision tree, one glued
// path-conjunction per accepting leaf, all in one plan.
func queryTree(est *query.Estimator, src query.PartialSource, req *queryRequest) (any, error) {
	tree, err := parseTreeJSON(req.Tree)
	if err != nil {
		return nil, badQuery(err)
	}
	n, err := est.DecisionTreeFraction(src, tree)
	if err != nil {
		return nil, err
	}
	return toNumeric(n), nil
}
