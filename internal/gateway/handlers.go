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

// handleQuery dispatches POST /v1/query/{kind} through the planner
// registry and answers over the tenant's domain-restricted source.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request, t *Tenant) {
	kind := r.PathValue("kind")
	compile, ok := queryKinds[kind]
	if !ok {
		g.writeError(w, http.StatusNotFound, apiError{
			Code:    codeNotFound,
			Message: fmt.Sprintf("unknown estimator %q; known kinds: %s", kind, queryKindNames()),
		})
		return
	}
	var req queryRequest
	if !g.decode(w, r, &req) {
		return
	}
	g.metrics.tenant(t.Name).queries.Add(1)
	resp, err := g.answer(compile, g.backend.Source(t.Domain), &req)
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

// answer is the one place a query request is executed and finished: a new
// plan, the kind's compile onto it, exactly one src.Execute — one fan-out
// round trip over a cluster, however many conjunctive sub-queries the
// estimator decomposes into — and the finish into the JSON body.
func (g *Gateway) answer(compile queryKind, src query.PartialSource, req *queryRequest) (any, error) {
	p := query.NewPlan()
	finish, err := compile(g.est, p, req)
	if err != nil {
		return nil, err
	}
	res, err := src.Execute(p)
	if err != nil {
		return nil, err
	}
	return finish(res)
}

// errBadQuery marks request-shape errors detected before the estimator
// runs, so the dispatcher can answer 400 rather than 502.
var errBadQuery = errors.New("bad query request")

// badQuery wraps a shape error with the errBadQuery marker.
func badQuery(err error) error {
	return fmt.Errorf("%w: %w", errBadQuery, err)
}

// finisher reduces a request's executed plan into its JSON response body.
type finisher = func(*query.Results) (any, error)

// queryKind compiles one request onto the plan p: it registers the
// evaluations its estimator needs and returns the finisher that reads them.
type queryKind func(est *query.Estimator, p *query.Plan, req *queryRequest) (finish finisher, err error)

// queryKinds is the query registry: route suffix → planner.
var queryKinds = map[string]queryKind{
	"fraction":        fraction,
	"conjunction":     conjunction,
	"union":           subQueries(withoutArg[int]((*query.Estimator).PlanUnionConjunction)),
	"none-of":         subQueries(withoutArg[int]((*query.Estimator).PlanNoneOf)),
	"exactly-of-k":    subQueries((*query.Estimator).PlanExactlyOfK),
	"at-least-of-k":   subQueries((*query.Estimator).PlanAtLeastOfK),
	"field-mean":      field(withoutArg[uint64]((*query.Estimator).PlanFieldMean)),
	"field-sum":       field(withoutArg[uint64]((*query.Estimator).PlanFieldSum)),
	"field-less-than": field((*query.Estimator).PlanFieldLessThan),
	"field-at-most":   field((*query.Estimator).PlanFieldAtMost),
	"interval":        interval,
	"tree":            tree,
}

// queryKindNames renders the registry's keys, sorted, for the 404 message.
func queryKindNames() string {
	names := make([]string, 0, len(queryKinds))
	for k := range queryKinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// estimate adapts a frequency planner's finisher to the JSON finisher.
func estimate(fin query.EstimateFinisher, err error) (finisher, error) {
	return convert(fin, err, toEstimate)
}

// numeric adapts a numeric planner's finisher to the JSON finisher.
func numeric(fin query.NumericFinisher, err error) (finisher, error) {
	return convert(fin, err, toNumeric)
}

// convert wraps a typed finisher so its result reaches the wire through to.
func convert[T, R any](fin func(*query.Results) (T, error), err error, to func(T) R) (finisher, error) {
	if err != nil {
		return nil, err
	}
	return func(res *query.Results) (any, error) {
		v, err := fin(res)
		if err != nil {
			return nil, err
		}
		return to(v), nil
	}, nil
}

// withoutArg lifts a planner of one operand to the two-operand shape the
// request adapters call, ignoring the scalar (l or c) it has no use for.
func withoutArg[S, A, F any](plan func(*query.Estimator, *query.Plan, A) (F, error)) func(*query.Estimator, *query.Plan, A, S) (F, error) {
	return func(est *query.Estimator, p *query.Plan, a A, _ S) (F, error) { return plan(est, p, a) }
}

// subQueries adapts an Appendix F planner: the request's sub-queries and
// l, which union and none-of ignore.
func subQueries(plan func(*query.Estimator, *query.Plan, []query.SubQuery, int) (query.EstimateFinisher, error)) queryKind {
	return func(est *query.Estimator, p *query.Plan, req *queryRequest) (finisher, error) {
		subs, err := parseSubQueriesJSON(req.SubQueries)
		if err != nil {
			return nil, badQuery(err)
		}
		return estimate(plan(est, p, subs, req.L))
	}
}

// field adapts a Section 4.1 planner: the request's field and c, which the
// mean and the sum ignore.
func field(plan func(*query.Estimator, *query.Plan, bitvec.IntField, uint64) (query.NumericFinisher, error)) queryKind {
	return func(est *query.Estimator, p *query.Plan, req *queryRequest) (finisher, error) {
		f, err := parseFieldJSON(req.Field)
		if err != nil {
			return nil, badQuery(err)
		}
		return numeric(plan(est, p, f, req.C))
	}
}

// fraction plans the basic Algorithm 2 estimate I(B, v).
func fraction(est *query.Estimator, p *query.Plan, req *queryRequest) (finisher, error) {
	sub, v, err := parseSubsetValueJSON(req.Subset, req.Value)
	if err != nil {
		return nil, badQuery(err)
	}
	return estimate(est.PlanFraction(p, sub, v))
}

// conjunction plans a conjunction of literals over a sketched subset (the
// subset/value form sketchctl uses).
func conjunction(est *query.Estimator, p *query.Plan, req *queryRequest) (finisher, error) {
	sub, v, err := parseSubsetValueJSON(req.Subset, req.Value)
	if err != nil {
		return nil, badQuery(err)
	}
	return estimate(est.PlanConjunctionFraction(p, bitvec.ConjunctionOf(sub, v)))
}

// interval plans P[lo ≤ field ≤ hi] as P[≤ hi] − P[< lo]: both prefix
// decompositions on the request's one plan, so an interval costs a single
// fan-out round trip like every other kind.
func interval(est *query.Estimator, p *query.Plan, req *queryRequest) (finisher, error) {
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
	finHi, err := est.PlanFieldAtMost(p, f, req.Hi)
	if err != nil {
		return nil, err
	}
	var finLo query.NumericFinisher
	if req.Lo > 0 {
		if finLo, err = est.PlanFieldLessThan(p, f, req.Lo); err != nil {
			return nil, err
		}
	}
	return numeric(func(res *query.Results) (query.NumericEstimate, error) {
		out, err := finHi(res)
		if err != nil || finLo == nil {
			return out, err
		}
		lo, err := finLo(res)
		if err != nil {
			return out, err
		}
		out.Value -= lo.Value
		out.Queries += lo.Queries
		return out, nil
	}, nil)
}

// tree plans the accepting fraction of a decision tree, one glued
// path-conjunction per accepting leaf.
func tree(est *query.Estimator, p *query.Plan, req *queryRequest) (finisher, error) {
	t, err := parseTreeJSON(req.Tree)
	if err != nil {
		return nil, badQuery(err)
	}
	return numeric(est.PlanDecisionTreeFraction(p, t))
}
