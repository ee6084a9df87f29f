package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// Config parameterizes a Router.
type Config struct {
	// Nodes is the initial cluster membership (sketchd addresses).  The
	// membership is dynamic after startup: Join and Drain change it live.
	Nodes []string
	// Replication is the number of nodes each record is stored on (RF).
	Replication int
	// VNodes is the virtual-node count per member (default 64).
	VNodes int
	// HintedHandoff, when true, lets a publish succeed while a replica is
	// briefly down: the record is acknowledged by every live owner and
	// queued as a hint for the dead one, replayed when it returns.  Until
	// the replay drains, the returned node is excluded from query fan-outs
	// (its record set is incomplete), so estimates stay exact.  Off, any
	// dead owner fails the publish: a record is acknowledged only once
	// every one of its owners holds it.
	HintedHandoff bool
	// MaxHintsPerNode bounds the hint queue per down node (default 4096).
	// At the cap, publishes that would need another hint fail instead —
	// bounded memory, and the all-live-owner guarantee degrades loudly.
	MaxHintsPerNode int
	// OnTransferBatch, when set, runs after the rebalance engine finishes
	// processing each snapshot batch.  Tests use it to freeze a precise
	// mid-transfer moment (kill a node, run a query); metrics hooks can
	// use it for progress.
	OnTransferBatch func()
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response exchange and is the
	// end-to-end budget of one query fan-out attempt (default 10s): the
	// remaining budget rides in every filter, so nodes stop executing
	// plans the router has stopped waiting for.
	RequestTimeout time.Duration
	// HedgeDelay is how long a fan-out waits on a silent node — once every
	// other node has answered — before hedging: speculatively re-asking
	// the silent node's slice of the user space from the surviving
	// replicas (default RequestTimeout/4).  A blackholed node therefore
	// delays a query by about HedgeDelay plus the recovery round trip, not
	// by the full RequestTimeout.
	HedgeDelay time.Duration
	// TransferTimeout bounds one rebalance snapshot read or batch push
	// (default 60s): bulk record batches legitimately take longer than the
	// query RequestTimeout.
	TransferTimeout time.Duration
	// Dial, when set, replaces net.DialTimeout for node connections.
	// Fault-injection tests route connections through a faultnet fabric
	// with it; production leaves it nil.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// PingInterval is the health-check period (default 2s).
	PingInterval time.Duration
	// BackoffBase and BackoffMax bound the dead-node probe backoff
	// (defaults 250ms and 15s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Replication < 1 {
		c.Replication = 1
	}
	if c.VNodes == 0 {
		c.VNodes = 64
	}
	if c.MaxHintsPerNode == 0 {
		c.MaxHintsPerNode = 4096
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = c.RequestTimeout / 4
	}
	if c.TransferTimeout == 0 {
		c.TransferTimeout = 60 * time.Second
	}
	if c.TransferTimeout < c.RequestTimeout {
		// A transfer is never cheaper than a query; a shorter budget would
		// only make rebalances flakier than the queries they protect.
		c.TransferTimeout = c.RequestTimeout
	}
	if c.PingInterval == 0 {
		c.PingInterval = 2 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 15 * time.Second
	}
	return c
}

// Router routes publishes to their ring owners and fans queries out to all
// live nodes as compiled plans, merging the raw counters exactly.  It
// implements query.PartialSource, so every estimator in
// internal/query — Algorithm 2 fractions, the Section 4.1 numeric and
// interval decompositions, decision trees and the Appendix F combinations
// — runs over a cluster unchanged and bit-identically.
//
// Membership is dynamic: Join streams the moved ownership onto a new node
// and Drain streams a retiring node's ownership away, both while the
// cluster keeps serving publishes and exact queries (see rebalance.go).
// Each membership change bumps the ring epoch; every fan-out is built from
// one (ring, live set, epoch) snapshot, and nodes refuse plan queries
// carrying a superseded epoch, so counters from different ring generations
// are never merged.
type Router struct {
	cfg Config
	est *query.Estimator

	// mu guards the routing state below; fan-outs and publishes take one
	// consistent snapshot under RLock, membership changes swap it under
	// the write lock (the cutover — the only moment queries switch rings).
	// Publish holds the read lock across its sends: installing a migration
	// takes the write lock, so once it is installed no acknowledged record
	// can have been routed by the pre-migration ring alone — every later
	// ack is either dual-written or already on disk for the snapshot
	// stream to find.
	mu    sync.RWMutex
	ring  *Ring
	order []string // canonical membership order
	nodes map[string]*node
	mig   *migration

	// epoch is the ring generation, read lock-free (the node dial path
	// embeds it in the hello while request locks are held) and advanced
	// only under mu at cutover.
	epoch atomic.Uint64

	// fo aggregates the fan-out robustness counters (retries, recoveries,
	// hedges, coverage refusals) surfaced through Status.
	fo fanoutStats
	// hintsRefused counts hints dropped because their node refused them
	// with wire.RefusedMarker: records it will never admit.
	hintsRefused atomic.Uint64

	// om, when non-nil, holds the router's latency histograms; see
	// metrics.go.  Left nil, the publish and fan-out paths pay one branch.
	om *routerMetrics

	// adminMu serializes membership changes: a join racing a drain would
	// otherwise interleave two rebalance streams over inconsistent rings.
	adminMu sync.Mutex
	lastReb string // human-readable summary of the last completed rebalance

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter builds a router over the configured membership.  h is the
// deployment's public function, which only Estimator hands out (its bias p
// is what debiases merged counters; evaluations happen on the nodes).  With
// h nil the router has no Estimator: it merges counters for askers that
// debias them themselves, as sketchrouter's wire clients do.  The initial
// health sweep runs synchronously so a router started against a partially
// dead cluster begins with an accurate live set; unreachable nodes are
// marked dead, not errors.
func NewRouter(h prf.BitSource, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	var est *query.Estimator
	if h != nil {
		var err error
		if est, err = query.NewEstimator(h); err != nil {
			return nil, err
		}
	}
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Replication > len(ring.Nodes()) {
		return nil, fmt.Errorf("cluster: replication factor %d exceeds %d nodes", cfg.Replication, len(ring.Nodes()))
	}
	r := &Router{
		cfg:   cfg,
		ring:  ring,
		est:   est,
		order: ring.Nodes(),
		nodes: make(map[string]*node, len(cfg.Nodes)),
		stop:  make(chan struct{}),
	}
	r.epoch.Store(1)
	for _, addr := range r.order {
		r.nodes[addr] = r.newNode(addr)
	}
	r.sweep()
	r.wg.Add(1)
	go r.pingLoop()
	return r, nil
}

// newNode builds a member handle wired to the router's timeouts and epoch.
func (r *Router) newNode(addr string) *node {
	return &node{
		addr:        addr,
		dialTimeout: r.cfg.DialTimeout,
		reqTimeout:  r.cfg.RequestTimeout,
		backoffBase: r.cfg.BackoffBase,
		backoffMax:  r.cfg.BackoffMax,
		dialFn:      r.cfg.Dial,
		epochFn:     r.Epoch,
		epochSeen:   r.adoptEpoch,
	}
}

// adoptEpoch fast-forwards the ring epoch to one a node reported in a
// pong.  A freshly started router — a replacement sketchrouter, or a
// gateway fronting a cluster whose membership was changed under a
// previous router — begins at epoch 1, and without fast-forward every
// node would refuse its fan-outs as stale forever.  Adoption only moves
// forward and never runs mid-rebalance: during our own cutover the old
// snapshot must stay refusable, which is the stale-epoch check's job.
func (r *Router) adoptEpoch(e uint64) {
	r.mu.RLock()
	migrating := r.mig != nil
	r.mu.RUnlock()
	if migrating {
		return
	}
	for {
		cur := r.epoch.Load()
		if e <= cur || r.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the current ring epoch (1 at startup, bumped by every
// completed membership change).
func (r *Router) Epoch() uint64 { return r.epoch.Load() }

// pingLoop health-checks the membership until Close.
func (r *Router) pingLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.sweep()
		}
	}
}

// handles returns a snapshot of every member handle (including a joining
// node mid-migration).
func (r *Router) handles() []*node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n)
	}
	return out
}

// handle returns the member handle for addr, if present.
func (r *Router) handle(addr string) (*node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.nodes[addr]
	return n, ok
}

// sweep pings every live node and every dead node whose backoff elapsed,
// then replays pending hints to nodes that came back.
func (r *Router) sweep() {
	now := time.Now()
	var wg sync.WaitGroup
	for _, n := range r.handles() {
		if !n.probeDue(now) {
			continue
		}
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			if err := n.ping(); err != nil {
				return
			}
			r.replayHints(n)
		}(n)
	}
	wg.Wait()
}

// replayHints pushes a returned node's queued publishes back to it in
// batch frames.  Until the queue drains the node stays out of query
// fan-outs (queryLive is false), so an estimate never runs over its
// incomplete record set; the replay itself is idempotent, like every
// transfer.  A hint the node refuses for good (wire.IsRefused) — the
// stray one a publish its live replicas refused leaves behind, queued
// before the sends — is dropped and counted, or it would head the queue
// forever and keep the node out of every fan-out: a refused frame is
// pushed again a record at a time, so only the refused records go.  Any
// other failure leaves the hints queued for the next sweep.
func (r *Router) replayHints(n *node) {
	for {
		hints := n.takeHints(wire.MaxTransferBatch)
		if len(hints) == 0 {
			return
		}
		_, err := r.pushTransfer(n, hints)
		if err != nil && wire.IsRefused(err.Error()) {
			hints, err = r.pushEach(n, hints)
		}
		if err != nil {
			n.settleHints(hints)
			return
		}
		n.settleHints(nil)
	}
}

// pushEach pushes records to n one at a time, dropping — and counting —
// each the node refuses; on any other failure it returns the records not
// yet delivered with the error.
func (r *Router) pushEach(n *node, records []sketch.Published) ([]sketch.Published, error) {
	for len(records) > 0 {
		if _, err := r.pushTransfer(n, records[:1]); err != nil {
			if !wire.IsRefused(err.Error()) {
				return records, err
			}
			r.hintsRefused.Add(1)
		}
		records = records[1:]
	}
	return nil, nil
}

// pushTransfer delivers an idempotent record batch to a node as publish
// batch frames stamped with the current ring epoch, and reports how many
// frames that took: wire.FrameBatch cuts the batch by record count and by
// bytes, so wide subsets split it further.  Each frame is bounded by the
// bulk TransferTimeout rather than the query RequestTimeout — a full batch
// write can legitimately outlast a query exchange.
func (r *Router) pushTransfer(n *node, records []sketch.Published) (frames int, err error) {
	for ; len(records) > 0; frames++ {
		fit, err := wire.FrameBatch(records)
		if err != nil {
			return frames, err
		}
		payload := wire.EncodePublishBatch(r.Epoch(), records[:fit])
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.TransferTimeout)
		replyType, reply, err := n.roundTripCtx(ctx, wire.TypePublishBatch, payload)
		cancel()
		switch {
		case err != nil:
			return frames, err
		case replyType == wire.TypeError:
			return frames, fmt.Errorf("cluster: node %s refused transfer: %s", n.addr, reply)
		case replyType != wire.TypeAck:
			return frames, fmt.Errorf("cluster: node %s: unexpected transfer reply type %d", n.addr, replyType)
		}
		records = records[fit:]
	}
	return frames, nil
}

// Estimator returns the estimator the router reduces merged counters with,
// or nil for a router built without a source.
func (r *Router) Estimator() *query.Estimator { return r.est }

// Ring returns the current placement ring.
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// Members returns the current ring membership in canonical order.
func (r *Router) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// LiveNodes returns the members a query fan-out may use, in canonical
// order: alive and with no pending hints (a node whose hint replay has not
// drained is missing acknowledged records, so letting it answer would
// undercount).
func (r *Router) LiveNodes() []string {
	r.mu.RLock()
	order, nodes := r.order, r.nodes
	live := make([]string, 0, len(order))
	for _, addr := range order {
		if nodes[addr].queryLive() {
			live = append(live, addr)
		}
	}
	r.mu.RUnlock()
	return live
}

// Close stops the health loop and closes every pooled connection.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		for _, n := range r.handles() {
			n.close()
		}
	})
	r.wg.Wait()
	return nil
}

// Publish routes one record to its owner and RF−1 replicas and waits for
// every live one of them to acknowledge.  All-replica acknowledgement is
// what makes the loss guarantee hold: an acked record survives any RF−1
// node deaths, because some live replica holds it and the ownership filter
// assigns it to exactly one of them at query time.
//
// With hinted handoff enabled, a dead replica does not fail the publish:
// every live owner must still acknowledge, and the record is queued as a
// hint replayed when the dead replica returns (the returned node rejoins
// query fan-outs only after the replay drains).  With it disabled — and
// always while a rebalance is migrating ownership — any dead owner fails
// the publish; the record may exist on a subset of replicas, but it was
// never acknowledged, so nothing durable was promised and the client
// retries once the cluster heals (identical re-publishes are idempotent,
// so retries converge).
//
// During a rebalance the record is dual-written: it goes to its owners
// under both the current and the target ring, so a record published while
// the migration streams is already in place when the ring cuts over.
func (r *Router) Publish(p sketch.Published) error {
	// The read lock is held across the sends, not just the owner
	// computation: a migration install (write lock) thereby waits out any
	// publish routed by the pre-migration ring, closing the window where a
	// record could be acknowledged after the snapshot stream passed its
	// position yet without the dual-write.  Reads share the lock, so
	// publishes and queries still run concurrently.
	r.mu.RLock()
	defer r.mu.RUnlock()
	owners := r.ring.Owners(p.ID, r.cfg.Replication)
	migrating := r.mig != nil
	if migrating {
		next := r.mig.next
		nextRF := min(r.cfg.Replication, len(next.Nodes()))
		for _, addr := range next.Owners(p.ID, nextRF) {
			if !slices.Contains(owners, addr) {
				owners = append(owners, addr)
			}
		}
	}
	handles := make([]*node, len(owners))
	for i, addr := range owners {
		handles[i] = r.nodes[addr]
	}

	sendTo := handles[:0:0]
	var hintTo []*node
	for _, n := range handles {
		if n.isAlive() {
			sendTo = append(sendTo, n)
			continue
		}
		if !r.cfg.HintedHandoff || migrating {
			return fmt.Errorf("cluster: replica %s is down; publish of user %v needs all %d owners", n.addr, p.ID, len(owners))
		}
		hintTo = append(hintTo, n)
	}
	if len(sendTo) == 0 {
		return fmt.Errorf("cluster: no live replica for user %v; refusing to acknowledge a publish nothing holds", p.ID)
	}
	// Queue hints before the sends: if a send then fails the publish is
	// NACKed and the stray hint replays an identical record later — an
	// idempotent no-op — whereas hinting after the sends could lose the
	// hint to a crash between ack and enqueue.
	for _, n := range hintTo {
		if !n.addHint(p, r.cfg.MaxHintsPerNode) {
			return fmt.Errorf("cluster: hint queue for down replica %s is full (%d records); refusing publish", n.addr, r.cfg.MaxHintsPerNode)
		}
	}

	if r.om != nil {
		defer r.om.publish.ObserveSince(time.Now())
	}
	payload := wire.EncodePublished(p)
	errs := make([]error, len(sendTo))
	var wg sync.WaitGroup
	for i, n := range sendTo {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			replyType, reply, err := n.roundTrip(wire.TypePublish, payload)
			if err != nil {
				errs[i] = err
				return
			}
			switch replyType {
			case wire.TypeAck:
			case wire.TypeError:
				errs[i] = fmt.Errorf("cluster: node %s: %s", n.addr, reply)
			default:
				errs[i] = fmt.Errorf("cluster: node %s: unexpected reply type %d", n.addr, replyType)
			}
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// publishConcurrency bounds how many replicated publishes PublishAll keeps
// in flight at once.
const publishConcurrency = 16

// PublishAll publishes a batch through a bounded pipeline: up to
// publishConcurrency records are in flight at once, each running the full
// replicated Publish protocol (all-live-owner acknowledgement, dual-write
// under a migration, hinted handoff) — Publish is already safe under
// concurrent callers, the pipeline only overlaps independent records'
// round trips instead of paying one sequential RTT per record.  On an
// error, no further records are launched (in-flight ones complete) and the
// earliest failed record's error — by batch position, not completion
// order — is returned.  Records of a batch are routed independently, so a
// batch containing two conflicting sketches for the same (user, subset)
// pair has no deterministic winner; batches are expected to carry distinct
// pairs, as every generator here does.
func (r *Router) PublishAll(ps []sketch.Published) error {
	if len(ps) == 1 {
		return r.Publish(ps[0])
	}
	errs := make([]error, len(ps))
	sem := make(chan struct{}, publishConcurrency)
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	for i, p := range ps {
		if failed.Load() {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, p sketch.Published) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := r.Publish(p); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Execute implements query.PartialSource: the whole plan is pushed to
// every live node in one planQuery fan-out and the per-entry counters are
// merged exactly, so an estimator needing dozens of evaluations (interval
// prefixes, decision-tree paths, inner products) costs one round trip.
// The merge is bit-identical to a single engine holding the union of the
// records by construction: each node answers every entry over the records
// its ownership filter assigns it, the filters partition the user space,
// and integer counters sum exactly.
func (r *Router) Execute(p *query.Plan) (*query.Results, error) {
	return r.executeDomain(Domain{}, p)
}

// executeDomain is Execute restricted to one user-id domain: every node
// counts only the records whose id carries the domain's prefix, so the
// merged counters are exactly the tenant's slice of the cluster.
func (r *Router) executeDomain(d Domain, p *query.Plan) (*query.Results, error) {
	fracs := p.Fractions()
	hists := p.Histograms()
	counts := p.CountSubsets()
	merged := &query.Results{
		Fractions: make([]query.Partial, len(fracs)),
		Hists:     make([]query.HistPartial, len(hists)),
		Counts:    make([]uint64, len(counts)),
	}
	if p.Empty() {
		// Nothing to evaluate (e.g. an interval query with an all-zero
		// constant): touch no node.
		return merged, nil
	}
	if len(fracs) > wire.MaxPlanFractions || len(hists) > wire.MaxPlanHists || len(counts) > wire.MaxPlanCounts {
		return nil, fmt.Errorf("cluster: plan with %d fraction, %d histogram and %d count entries exceeds the one-fan-out limits (%d/%d/%d); split the query into smaller plans",
			len(fracs), len(hists), len(counts), wire.MaxPlanFractions, wire.MaxPlanHists, wire.MaxPlanCounts)
	}
	for _, h := range hists {
		if len(h.Subs) > wire.MaxPlanHistSubQueries {
			return nil, fmt.Errorf("cluster: plan histogram with %d sub-queries exceeds the wire limit %d", len(h.Subs), wire.MaxPlanHistSubQueries)
		}
	}
	results, err := scatterGather(r, d, p)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if err := merged.Merge(res); err != nil {
			return nil, fmt.Errorf("cluster: a node's answer does not fit the plan: %w", err)
		}
	}
	return merged, nil
}

// Status renders the router's view of the cluster: ring shape, epoch,
// per-node liveness, sketch counts, pending hints and ownership spans.  It
// is the payload the router answers pings with.
func (r *Router) Status() string {
	r.mu.RLock()
	ring, order, epoch, mig := r.ring, r.order, r.epoch.Load(), r.mig
	handles := make(map[string]*node, len(r.nodes))
	for addr, n := range r.nodes {
		handles[addr] = n
	}
	r.mu.RUnlock()

	spans := ring.Spans()
	var sb strings.Builder
	fmt.Fprintf(&sb, "router ok version=%d epoch=%d nodes=%d rf=%d vnodes=%d live=%d\n",
		wire.ProtocolVersion, epoch, len(order), r.cfg.Replication, r.cfg.VNodes, len(r.LiveNodes()))
	sb.WriteString(r.fo.summary())
	sb.WriteByte('\n')
	if mig != nil {
		fmt.Fprintf(&sb, "rebalance %s\n", mig.progress())
	}
	addrs := make([]string, len(order))
	copy(addrs, order)
	if mig != nil && !slices.Contains(addrs, mig.target) {
		addrs = append(addrs, mig.target)
	}
	sort.Strings(addrs)
	now := time.Now()
	for _, addr := range addrs {
		n := handles[addr]
		if n == nil {
			continue
		}
		n.mu.Lock()
		state := "alive"
		detail := fmt.Sprintf("sketches=%d", n.sketches)
		if !n.alive {
			state = "dead"
			breaker := "half-open"
			if now.Before(n.retryAt) {
				breaker = "open"
			}
			detail = fmt.Sprintf("breaker=%s trips=%d retry-in=%s err=%q",
				breaker, n.trips, time.Until(n.retryAt).Round(time.Millisecond), n.lastErr)
		} else {
			if n.trips > 0 {
				detail += fmt.Sprintf(" trips=%d", n.trips)
			}
			if n.epoch != 0 && n.epoch != epoch {
				// The node has not yet heard of the current ring epoch (it
				// learns it on the next ping or filtered query); worth
				// seeing while a cutover propagates.
				detail += fmt.Sprintf(" epoch=%d", n.epoch)
			}
			if !n.lastOK.IsZero() {
				detail += fmt.Sprintf(" last-ok=%s", now.Sub(n.lastOK).Round(time.Millisecond))
			}
		}
		if h := len(n.hints); h > 0 {
			if n.alive {
				state = "restoring" // reachable, but catching up on hints
			}
			detail += fmt.Sprintf(" pending-hints=%d", h)
		}
		n.mu.Unlock()
		span := spans[addr]
		role := ""
		if !slices.Contains(order, addr) {
			role = " (joining)"
		}
		fmt.Fprintf(&sb, "node %-24s %-9s span=%5.1f%% %s%s\n", addr, state, 100*span, detail, role)
	}
	return sb.String()
}
