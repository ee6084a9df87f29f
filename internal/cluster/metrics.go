package cluster

import (
	"time"

	"sketchprivacy/internal/obs"
)

// routerMetrics holds the router's hot-path instruments.  A nil pointer
// (RegisterMetrics never called) keeps the publish and fan-out paths at
// one nil check each, with no time.Now calls.
type routerMetrics struct {
	fanoutRTT *obs.Histogram
	publish   *obs.Histogram
}

// breakerStates are the one-hot values of the per-node breaker gauge.
var breakerStates = []string{"closed", "open", "half-open"}

// RegisterMetrics registers the router's instrument families on reg and
// starts recording: per-attempt fan-out RTT and publish replication
// latency histograms, the fan-out robustness counters (same
// cluster_fanout_* names the gateway exposes for its embedded backend),
// per-node breaker state/trip and hint-depth collectors, and the live
// rebalance progress.  Call once, before the router starts serving.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	r.om = &routerMetrics{
		fanoutRTT: reg.Histogram("cluster_fanout_rtt_seconds", "Round-trip latency of one node exchange within a fan-out attempt.", nil),
		publish:   reg.Histogram("cluster_publish_seconds", "Latency of one publish's replication to all live owners.", nil),
	}
	reg.CounterFunc("cluster_fanout_retries_total", "Full fan-out retries (stale epoch, unrecoverable failures).",
		func() uint64 { return r.fo.retries.Load() })
	reg.CounterFunc("cluster_fanout_recoveries_total", "Replica-aware recovery rounds launched inside fan-out attempts.",
		func() uint64 { return r.fo.recoveries.Load() })
	reg.CounterFunc("cluster_fanout_hedges_total", "Recoveries triggered by the hedge timer rather than a failure.",
		func() uint64 { return r.fo.hedges.Load() })
	reg.CounterFunc("cluster_fanout_refusals_total", "Coverage refusals returned instead of partial answers.",
		func() uint64 { return r.fo.refusals.Load() })
	reg.GaugeFunc("cluster_ring_epoch", "Current ring generation (bumped at every rebalance cutover).",
		func() float64 { return float64(r.epoch.Load()) })
	reg.GaugeFunc("cluster_members", "Configured cluster members.",
		func() float64 { return float64(len(r.Members())) })
	reg.GaugeFunc("cluster_live_nodes", "Members currently answering pings.",
		func() float64 { return float64(len(r.LiveNodes())) })
	reg.CollectFunc("cluster_node_breaker_state", "One-hot circuit breaker state per node (1 on the current state's series).", obs.TypeGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			for _, n := range r.handles() {
				state, _, _ := n.obsSnapshot()
				for _, s := range breakerStates {
					v := 0.0
					if s == state {
						v = 1
					}
					emit(v, obs.L("node", n.addr), obs.L("state", s))
				}
			}
		})
	reg.CollectFunc("cluster_node_breaker_trips_total", "Alive-to-dead transitions per node: how often its breaker opened.", obs.TypeCounter,
		func(emit func(v float64, labels ...obs.Label)) {
			for _, n := range r.handles() {
				_, trips, _ := n.obsSnapshot()
				emit(float64(trips), obs.L("node", n.addr))
			}
		})
	reg.CollectFunc("cluster_hint_queue_depth", "Hinted-handoff records queued per down (or catching-up) node.", obs.TypeGauge,
		func(emit func(v float64, labels ...obs.Label)) {
			for _, n := range r.handles() {
				_, _, hints := n.obsSnapshot()
				emit(float64(hints), obs.L("node", n.addr))
			}
		})
	reg.GaugeFunc("cluster_rebalance_active", "1 while a join/drain migration is streaming, else 0.",
		func() float64 {
			if active, _, _, _ := r.migSnapshot(); active {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("cluster_rebalance_scanned", "Records examined by the active migration's source streams (0 when idle).",
		func() float64 { _, scanned, _, _ := r.migSnapshot(); return float64(scanned) })
	reg.GaugeFunc("cluster_rebalance_moved", "Record copies pushed to new owners by the active migration (0 when idle).",
		func() float64 { _, _, moved, _ := r.migSnapshot(); return float64(moved) })
	reg.GaugeFunc("cluster_rebalance_batches", "Batch frames pushed by the active migration (0 when idle).",
		func() float64 { _, _, _, batches := r.migSnapshot(); return float64(batches) })
}

// migSnapshot reads the live migration's progress counters, reporting
// active=false (and zeros) between rebalances.
func (r *Router) migSnapshot() (active bool, scanned, moved, batches uint64) {
	r.mu.RLock()
	mig := r.mig
	r.mu.RUnlock()
	if mig == nil {
		return false, 0, 0, 0
	}
	return true, mig.scanned.Load(), mig.moved.Load(), mig.batches.Load()
}

// obsSnapshot returns the fields the metrics collectors need in one lock
// acquisition: breaker state, trip count and hint queue depth.
func (n *node) obsSnapshot() (state string, trips uint64, hints int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.alive:
		state = "closed"
	case time.Now().Before(n.retryAt):
		state = "open"
	default:
		state = "half-open"
	}
	return state, n.trips, len(n.hints)
}
