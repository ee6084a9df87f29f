package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/query"
	"sketchprivacy/internal/wire"
)

// ErrPartialCoverage is the sentinel every coverage refusal wraps: at
// least RF nodes are down, so some acknowledged records may have no live
// replica and any merged answer could be confidently wrong.  Callers test
// for it with errors.Is and inspect the typed *CoverageError for the
// unreachable spans.
var ErrPartialCoverage = errors.New("cluster: partial coverage — acknowledged records may be unreachable")

// CoverageError is the typed refusal a fan-out returns when the live set
// cannot cover the user space: it carries which arcs of the hash circle —
// which spans of the user space — have no live replica left.
type CoverageError struct {
	// Live and Total count the queryable and configured members.
	Live, Total int
	// RF is the replication factor the coverage guarantee is relative to.
	RF int
	// Spans lists the unreachable arcs of the user space (possibly empty:
	// with ≥RF nodes down coverage is no longer *guaranteed* even if every
	// current arc happens to retain a live owner).
	Spans []Span
}

// Error renders the refusal with the unreachable spans.
func (e *CoverageError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cluster: %d of %d nodes down at rf=%d — acknowledged records may be unreachable, refusing a partial answer",
		e.Total-e.Live, e.Total, e.RF)
	if len(e.Spans) > 0 {
		var frac float64
		for _, s := range e.Spans {
			frac += s.Fraction()
		}
		fmt.Fprintf(&sb, "; unreachable: %.2f%% of the user space across %d span(s), e.g. %s", 100*frac, len(e.Spans), e.Spans[0])
	}
	return sb.String()
}

// Unwrap makes errors.Is(err, ErrPartialCoverage) hold.
func (e *CoverageError) Unwrap() error { return ErrPartialCoverage }

// fanoutStats aggregates the router's robustness counters, exposed through
// Status (and hence the router's pong payload and sketchctl -router).
type fanoutStats struct {
	retries      atomic.Uint64 // full fan-out retries (stale epoch, unrecoverable failures)
	recoveries   atomic.Uint64 // replica-aware recovery rounds launched
	hedges       atomic.Uint64 // recoveries triggered by the hedge timer rather than a failure
	refusals     atomic.Uint64 // coverage refusals returned
	lastCoverage atomic.Value  // string: the last fan-out's coverage line
}

// summary renders one status line of the counters.
func (s *fanoutStats) summary() string {
	last, _ := s.lastCoverage.Load().(string)
	if last == "" {
		last = "none"
	}
	return fmt.Sprintf("fanout retries=%d recoveries=%d hedges=%d refusals=%d last=%q",
		s.retries.Load(), s.recoveries.Load(), s.hedges.Load(), s.refusals.Load(), last)
}

// errNodeFailed marks transport-level fan-out failures, which are handled
// by replica-aware recovery or a full retry on a recomputed live set;
// semantic errors (a node answering TypeError) abort the query
// immediately, since every retry would fail the same way.  The one
// retried TypeError here is the overload refusal (transient load
// shedding); stale epochs are classified separately as errStaleSnapshot.
type errNodeFailed struct{ err error }

func (e errNodeFailed) Error() string { return e.err.Error() }
func (e errNodeFailed) Unwrap() error { return e.err }

// errStaleSnapshot marks failures that invalidate the whole fan-out
// snapshot — a node refused the attempt's superseded ring epoch, or
// answered under a different one.  Replica-aware recovery under the same
// snapshot would fail identically (the survivors refuse the same stale
// epoch), so the attempt restarts on a fresh snapshot immediately.
type errStaleSnapshot struct{ err error }

func (e errStaleSnapshot) Error() string { return e.err.Error() }
func (e errStaleSnapshot) Unwrap() error { return e.err }

// exchange runs one plan under one ownership filter against one node and
// classifies the reply: the node's results, an errNodeFailed (transport
// failure, epoch mismatch, retryable refusal), a context.Canceled
// pass-through (the caller hedged away from this exchange — says nothing
// about the node), or a plain error (semantic refusal; retries are
// pointless).
func exchange(ctx context.Context, n *node, f *wire.Filter, p *query.Plan) (*query.Results, error) {
	gotType, reply, err := n.roundTripCtx(ctx, wire.TypePlanQuery, wire.EncodePlanQuery(f, p))
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, err
		}
		return nil, errNodeFailed{err}
	}
	switch gotType {
	case wire.TypePlanResult:
		epoch, res, derr := wire.DecodePlanResult(reply)
		if derr != nil {
			return nil, errNodeFailed{fmt.Errorf("cluster: node %s: %w", n.addr, derr)}
		}
		// The echoed epoch is the one the node computed under: replies
		// from different ring generations are never mixed.
		if epoch != f.Epoch {
			return nil, errStaleSnapshot{fmt.Errorf("cluster: node %s answered for ring epoch %d, fan-out ran at %d", n.addr, epoch, f.Epoch)}
		}
		return res, nil
	case wire.TypeError:
		msg := string(reply)
		if wire.IsStaleEpoch(msg) {
			return nil, errStaleSnapshot{fmt.Errorf("cluster: node %s: %s", n.addr, msg)}
		}
		if wire.IsOverload(msg) || wire.IsChecksum(msg) {
			return nil, errNodeFailed{fmt.Errorf("cluster: node %s: %s", n.addr, msg)}
		}
		return nil, fmt.Errorf("cluster: node %s: %s", n.addr, msg)
	default:
		return nil, errNodeFailed{fmt.Errorf("cluster: node %s: unexpected reply type %d", n.addr, gotType)}
	}
}

// scatterGather runs one plan, restricted to the domain d, across all live
// nodes and collects their results.  Each attempt takes one consistent
// (ring, epoch, live set) snapshot, runs under one RequestTimeout-bounded
// context whose remaining budget rides in every filter, and degrades in
// stages: a single slow or failed node is absorbed by replica-aware
// recovery inside the attempt (see fanoutOnce); only stale epochs and
// unrecoverable failures restart the whole fan-out on a fresh snapshot;
// and when ≥RF members are down the attempt refuses with a typed
// *CoverageError instead of merging over a truncated record set.
func scatterGather(r *Router, d Domain, p *query.Plan) ([]*query.Results, error) {
	var lastErr error
	maxAttempts := len(r.Members()) + 2
	for attempt := 0; attempt <= maxAttempts; attempt++ {
		if attempt > 0 {
			r.fo.retries.Add(1)
		}
		results, retry, err := fanoutOnce(r, d, p)
		if err == nil {
			return results, nil
		}
		if !retry {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: fan-out failed after retries: %w", lastErr)
}

// outcome carries one original exchange's result back to the event loop.
type outcome struct {
	i   int
	res *query.Results
	err error
}

// recOutcome carries one recovery round's results (one per survivor).
type recOutcome struct {
	res []*query.Results
	err error
}

// fanoutOnce runs a single fan-out attempt: launch every live node's
// exchange, then degrade without restarting when it can.
//
// If a node fails mid-fan-out (reset, refused dial, torn frame) or is
// still silent when the hedge timer fires while every other node has
// answered, it becomes a suspect, and — provided the suspects plus the
// already-dead members stay under RF, so every record still has a live
// replica — the attempt re-asks only the suspects' slice of the user
// space: each survivor gets the same query under a recovery filter
// (Failed = suspects) selecting the records whose original owner was a
// suspect and whose surviving-preference leader is that survivor.  The
// recovery slices partition the suspects' slices, so survivors' original
// answers plus recovery answers are bit-identical to the undisturbed
// fan-out.  The suspects' own late answers race the recovery: whichever
// completes first is used whole, the loser is cancelled and discarded —
// never merged, so nothing double-counts.
//
// retry=true asks the caller to rerun on a fresh snapshot (stale epoch, a
// survivor failing mid-recovery, unrecoverable failure counts); a
// *CoverageError (retry=false) is final.
func fanoutOnce(r *Router, d Domain, p *query.Plan) ([]*query.Results, bool, error) {
	r.mu.RLock()
	ring, order, epoch := r.ring, r.order, r.epoch.Load()
	handles := make([]*node, len(order))
	for i, addr := range order {
		handles[i] = r.nodes[addr]
	}
	r.mu.RUnlock()

	live := make([]string, 0, len(order))
	liveHandles := make([]*node, 0, len(order))
	for i, addr := range order {
		if handles[i].queryLive() {
			live = append(live, addr)
			liveHandles = append(liveHandles, handles[i])
		}
	}
	dead := len(order) - len(live)
	rf := r.cfg.Replication
	// Coverage is only guaranteed while fewer than RF nodes are down:
	// beyond that an acknowledged record may have no live replica, and a
	// merge over the survivors would be a confidently wrong estimate.
	// Fail loudly — and typed, with the unreachable spans — instead of
	// answering over a silently truncated record set.
	if dead >= rf {
		liveSet := make(map[string]bool, len(live))
		for _, a := range live {
			liveSet[a] = true
		}
		r.fo.refusals.Add(1)
		r.fo.lastCoverage.Store(fmt.Sprintf("REFUSED epoch=%d live=%d/%d rf=%d", epoch, len(live), len(order), rf))
		return nil, false, &CoverageError{Live: len(live), Total: len(order), RF: rf, Spans: ring.UnreachableSpans(rf, liveSet)}
	}

	ctx, cancelAll := context.WithTimeout(context.Background(), r.cfg.RequestTimeout)
	defer cancelAll()
	deadline, _ := ctx.Deadline()
	budget := func() uint32 {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		return uint32(ms)
	}
	mkFilter := func(self string, failed []string) *wire.Filter {
		return &wire.Filter{
			Epoch:      epoch,
			Nodes:      order,
			VNodes:     uint32(r.cfg.VNodes),
			Self:       self,
			Live:       live,
			Budget:     budget(),
			DomainBits: d.Bits,
			Domain:     d.Tag,
			Failed:     failed,
		}
	}

	ch := make(chan outcome, len(live))
	cancels := make([]context.CancelFunc, len(live))
	for i := range live {
		cctx, cc := context.WithCancel(ctx)
		cancels[i] = cc
		go func(i int, n *node) {
			var start time.Time
			if r.om != nil {
				start = time.Now()
			}
			res, err := exchange(cctx, n, mkFilter(n.addr, nil), p)
			if r.om != nil {
				r.om.fanoutRTT.ObserveSince(start)
			}
			ch <- outcome{i: i, res: res, err: err}
		}(i, liveHandles[i])
	}

	res := make([]*query.Results, len(live))
	okAt := make([]bool, len(live))
	failedAt := make([]bool, len(live))
	suspect := make([]bool, len(live))
	done := 0
	var firstFail error

	hedge := time.NewTimer(r.cfg.HedgeDelay)
	defer hedge.Stop()
	hedgeC := hedge.C
	hedged := false

	recovering := false
	recoveryDone := false
	recoveredByHedge := false
	var recResults []*query.Results
	recCh := make(chan recOutcome, 1)

	finishOriginals := func() ([]*query.Results, bool, error) {
		r.fo.lastCoverage.Store(fmt.Sprintf("ok epoch=%d live=%d/%d recovered=0", epoch, len(live), len(order)))
		return res, false, nil
	}
	finishRecovered := func() ([]*query.Results, bool, error) {
		out := make([]*query.Results, 0, len(live))
		nsus := 0
		for i := range live {
			if suspect[i] {
				nsus++
				continue
			}
			out = append(out, res[i])
		}
		out = append(out, recResults...)
		r.fo.lastCoverage.Store(fmt.Sprintf("ok epoch=%d live=%d/%d recovered=%d hedged=%v", epoch, len(live), len(order), nsus, recoveredByHedge))
		return out, false, nil
	}

	for {
		if !recovering {
			if done == len(live) && firstFail == nil {
				return finishOriginals()
			}
			// Gather the suspect candidates: every failed node, plus —
			// once the hedge timer fired — every still-silent one.
			var sus []int
			byHedge := false
			for i := range live {
				if failedAt[i] {
					sus = append(sus, i)
				}
			}
			if hedged {
				for i := range live {
					if !okAt[i] && !failedAt[i] {
						sus = append(sus, i)
						byHedge = true
					}
				}
			}
			if len(sus) > 0 {
				if dead+len(sus) <= rf-1 && len(live)-len(sus) >= 1 {
					// Exactness precondition: with dead+|suspects| ≤ RF−1
					// unavailable nodes, every acknowledged record still
					// has a live replica among the survivors.
					recovering = true
					recoveredByHedge = byHedge
					failedAddrs := make([]string, len(sus))
					for k, i := range sus {
						suspect[i] = true
						failedAddrs[k] = live[i]
					}
					r.fo.recoveries.Add(1)
					if byHedge {
						r.fo.hedges.Add(1)
					}
					var survIdx []int
					for i := range live {
						if !suspect[i] {
							survIdx = append(survIdx, i)
						}
					}
					go func() {
						out := make([]*query.Results, len(survIdx))
						errs := make([]error, len(survIdx))
						var wg sync.WaitGroup
						for k, i := range survIdx {
							wg.Add(1)
							go func(k, i int) {
								defer wg.Done()
								out[k], errs[k] = exchange(ctx, liveHandles[i], mkFilter(live[i], failedAddrs), p)
							}(k, i)
						}
						wg.Wait()
						for _, e := range errs {
							if e != nil {
								recCh <- recOutcome{err: e}
								return
							}
						}
						recCh <- recOutcome{res: out}
					}()
				} else if done == len(live) {
					// Recovery impossible and nothing still pending: full
					// retry under a fresh snapshot.  The failed nodes are
					// marked dead now, so the retry either covers their
					// records with surviving replicas or refuses with the
					// unreachable spans.
					cancelAll()
					return nil, true, firstFail
				}
				// Otherwise keep waiting: a pending original may still
				// answer and shrink the suspect set below the bound.
			}
		} else {
			// A survivor's original failing mid-recovery breaks the merge
			// (its own slice has no answer): full retry.
			for i := range live {
				if !suspect[i] && failedAt[i] {
					cancelAll()
					return nil, true, firstFail
				}
			}
			allOK := done == len(live)
			for i := range live {
				if !okAt[i] {
					allOK = false
				}
			}
			if allOK {
				// Every original answered after all: use them whole and
				// discard the recovery (cancelled on return).
				cancelAll()
				return finishOriginals()
			}
			if recoveryDone {
				survOK := true
				for i := range live {
					if !suspect[i] && !okAt[i] {
						survOK = false
					}
				}
				if survOK {
					// Recovery won the race: cancel the suspects' late
					// exchanges (a cancel does not mark them failed — slow
					// is not dead) and merge survivors + recovery.
					cancelAll()
					return finishRecovered()
				}
			}
		}

		select {
		case out := <-ch:
			done++
			if out.err == nil {
				res[out.i], okAt[out.i] = out.res, true
				break
			}
			if errors.Is(out.err, context.Canceled) {
				// Cancelled by us; neither a success nor node evidence.
				break
			}
			var stale errStaleSnapshot
			if errors.As(out.err, &stale) {
				// The whole snapshot is superseded: recovery under it would
				// be refused identically, so restart at once.
				cancelAll()
				return nil, true, out.err
			}
			var nf errNodeFailed
			if !errors.As(out.err, &nf) {
				cancelAll()
				return nil, false, out.err // semantic error: deterministic, don't retry
			}
			failedAt[out.i] = true
			if firstFail == nil {
				firstFail = out.err
			}
		case <-hedgeC:
			hedged = true
			hedgeC = nil
		case ro := <-recCh:
			if ro.err != nil {
				if errors.Is(ro.err, context.Canceled) {
					// The attempt is being torn down; treat as retryable.
					cancelAll()
					return nil, true, ro.err
				}
				var (
					stale errStaleSnapshot
					nf    errNodeFailed
				)
				cancelAll()
				if errors.As(ro.err, &stale) || errors.As(ro.err, &nf) {
					return nil, true, ro.err
				}
				return nil, false, ro.err
			}
			recResults = ro.res
			recoveryDone = true
		}
	}
}
