package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/faultnet"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/wire"
)

// faultDialer routes every router→node connection through a per-node
// fabric endpoint named "to:<addr>", so a test can blackhole, script or
// partition one node's link without touching the others.
func faultDialer(f *faultnet.Fabric) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		return f.Endpoint("to:"+addr).Dial(nil)(addr, timeout)
	}
}

// linkTo names the dial-side endpoint for one node.
func linkTo(addr string) string { return "to:" + addr }

// routerEvidence is what a fault test's failure carries beside its own
// message — which nodes the router believed alive, what its fan-outs had
// done, and the status page an operator would have read — so that one
// failure in many runs is evidence, not a prompt to run it again.
func routerEvidence(r *cluster.Router) string {
	return fmt.Sprintf("live nodes %v\nfan-out counters %+v\n%s", r.LiveNodes(), r.FanoutCounters(), r.Status())
}

// flushPools kills the router's pooled connections to one node by
// bouncing a partition: live connections are injected with a reset, so
// the next exchange falls through to a fresh dial, which picks up the
// endpoint's current default plan.
func flushPools(f *faultnet.Fabric, addr string) {
	f.PartitionBoth(linkTo(addr), addr)
	f.HealBoth(linkTo(addr), addr)
}

// TestBlackholeQueryLatencyBounded is the regression the hedge exists
// for: a node that accepts connections and then goes silent must delay a
// query by about one hedge delay plus a recovery round trip — NOT by
// attempts × RequestTimeout — and the hedged answer must stay
// bit-identical to the undisturbed cluster.
func TestBlackholeQueryLatencyBounded(t *testing.T) {
	fab := faultnet.NewFabric(1)
	nodes := startNodes(t, 3)
	const reqTimeout = 2 * time.Second
	r := startRouterCfg(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.Dial = faultDialer(fab)
		cfg.RequestTimeout = reqTimeout
		cfg.HedgeDelay = 150 * time.Millisecond
		cfg.PingInterval = time.Hour // no sweeps: the hedge alone must bound latency
	})
	pubs, subset, field := planWorkload(t, 150, 71)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)

	fab.Endpoint(linkTo(nodes[0].addr)).Blackhole()

	start := time.Now()
	got, err := r.Estimator().FieldAtMost(r, field, 9)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("query against a blackholed replica failed: %v", err)
	}
	if elapsed >= reqTimeout {
		t.Fatalf("blackholed node delayed the query by %v, want < one RequestTimeout (%v)", elapsed, reqTimeout)
	}
	want, err := ref.FieldAtMost(field, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hedged answer %+v differs from reference %+v", got, want)
	}
	if status := r.Status(); !strings.Contains(status, "hedges=1") {
		t.Fatalf("status does not account the hedge:\n%s", status)
	}
	// The full estimator surface stays bit-identical while the node is
	// dark (each fan-out pays one hedge delay).
	assertClusterMatchesReference(t, r, ref, subset, field)
}

// TestResetMidFanoutRecoveryExact crashes one replica's link mid-frame:
// every connection to it resets partway through the planQuery write.  At
// RF=2 the fan-out must absorb the failure with a replica-aware recovery
// round — re-asking only the dead node's slice from the survivors — and
// the answer must be bit-identical.
func TestResetMidFanoutRecoveryExact(t *testing.T) {
	fab := faultnet.NewFabric(2)
	nodes := startNodes(t, 3)
	r := startRouterCfg(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.Dial = faultDialer(fab)
		cfg.RequestTimeout = 2 * time.Second
		cfg.HedgeDelay = 300 * time.Millisecond
		cfg.PingInterval = time.Hour
	})
	pubs, subset, field := planWorkload(t, 150, 72)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	want, err := ref.FieldAtMost(field, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Asked twice while everything is up, so the survivors go into the
	// recovery round holding warm keep masks for the all-live ring.
	for ask := 0; ask < 2; ask++ {
		if got, err := r.Estimator().FieldAtMost(r, field, 9); err != nil || got != want {
			t.Fatalf("healthy answer %+v (err %v) differs from reference %+v", got, err, want)
		}
	}

	// Reset every future connection to node 0 a few bytes into the frame
	// payload, and kill the pooled connections so the plan takes effect.
	ep := fab.Endpoint(linkTo(nodes[0].addr))
	ep.SetDefaultPlan(faultnet.Plan{}.WithReset(int64(wire.FrameHeaderSize) + 2))
	flushPools(fab, nodes[0].addr)

	got, err := r.Estimator().FieldAtMost(r, field, 9)
	if err != nil {
		t.Fatalf("query across a mid-frame reset failed: %v", err)
	}
	if got != want {
		t.Fatalf("recovered answer %+v differs from reference %+v", got, want)
	}
	status := r.Status()
	if !strings.Contains(status, "recovered=1") && !strings.Contains(status, "retries=") {
		t.Fatalf("status does not account the recovery:\n%s", status)
	}
	// The reset marked node 0 dead (breaker open); with dead=1 < RF the
	// survivors keep answering the whole surface exactly.
	assertClusterMatchesReference(t, r, ref, subset, field)
	if !strings.Contains(r.Status(), "breaker=") {
		t.Fatalf("status does not render the breaker state:\n%s", r.Status())
	}
}

// TestTornWriteAtEveryFrameBoundary tears the planQuery frame at every
// header byte boundary (and a few payload offsets): the node receives a
// valid prefix and then silence — the nastiest mid-frame hang — and every
// single offset must still produce a bit-identical answer within the
// deadline, via the hedge and replica recovery.
func TestTornWriteAtEveryFrameBoundary(t *testing.T) {
	fab := faultnet.NewFabric(3)
	nodes := startNodes(t, 3)
	r := startRouterCfg(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.Dial = faultDialer(fab)
		cfg.RequestTimeout = 2 * time.Second
		cfg.HedgeDelay = 100 * time.Millisecond
		cfg.PingInterval = time.Hour
	})
	pubs, _, field := planWorkload(t, 120, 73)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	want, err := ref.FieldAtMost(field, 9)
	if err != nil {
		t.Fatal(err)
	}

	// Every byte boundary of the 9-byte frame header, the first payload
	// byte, and two deeper payload offsets.
	var offsets []int64
	for k := int64(0); k <= int64(wire.FrameHeaderSize); k++ {
		offsets = append(offsets, k)
	}
	offsets = append(offsets, int64(wire.FrameHeaderSize)+16, int64(wire.FrameHeaderSize)+64)

	ep := fab.Endpoint(linkTo(nodes[1].addr))
	flushPools(fab, nodes[1].addr)
	for _, off := range offsets {
		t.Run(fmt.Sprintf("tear-at-%d", off), func(t *testing.T) {
			ep.SetDefaultPlan(faultnet.Plan{TearAt: []int64{off}})
			start := time.Now()
			got, err := r.Estimator().FieldAtMost(r, field, 9)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("torn write at offset %d failed the query: %v", off, err)
			}
			if got != want {
				t.Fatalf("torn write at offset %d changed the answer: %+v != %+v", off, got, want)
			}
			if elapsed >= 2*time.Second {
				t.Fatalf("torn write at offset %d delayed the query by %v", off, elapsed)
			}
		})
	}
}

// TestPartitionHealRejoin partitions one node away from the router,
// checks queries stay exact throughout (recovery first, then the
// shrunken live set), heals the partition and checks the node is revived
// by the ping sweep and serves again.
func TestPartitionHealRejoin(t *testing.T) {
	fab := faultnet.NewFabric(4)
	nodes := startNodes(t, 3)
	r := startRouterCfg(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.Dial = faultDialer(fab)
		cfg.RequestTimeout = time.Second
		cfg.HedgeDelay = 100 * time.Millisecond
		cfg.BackoffMax = 300 * time.Millisecond
	})
	pubs, subset, field := planWorkload(t, 150, 74)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)

	fab.PartitionBoth(linkTo(nodes[0].addr), nodes[0].addr)

	// Mid-partition, before and after the sweep marks the node dead.
	got, err := r.Estimator().FieldAtMost(r, field, 9)
	if err != nil {
		t.Fatalf("query during partition failed: %v", err)
	}
	want, err := ref.FieldAtMost(field, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("partitioned answer %+v differs from reference %+v", got, want)
	}
	waitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 2 })
	assertClusterMatchesReference(t, r, ref, subset, field)

	fab.HealBoth(linkTo(nodes[0].addr), nodes[0].addr)
	waitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 3 })
	assertClusterMatchesReference(t, r, ref, subset, field)
}

// TestDeckIdenticalThroughDeathAndReturn is the fleet-level never-stale
// proof for cached keep masks: a fixed deck of queries is answered with
// every node up (twice, so the masks are cached), again while node 0 dies
// partway through the deck — the query in flight is finished by recovery
// filters carrying Failed, the ones after it by the shrunken live set —
// and again once the node is back, and every answer of every stage is the
// same bits.  Each stage is another filter key on the same nodes over the
// same records, so a mask served across keys shows up as a count that
// moved.
func TestDeckIdenticalThroughDeathAndReturn(t *testing.T) {
	const fabricSeed = 6
	fab := faultnet.NewFabric(fabricSeed)
	nodes := startNodes(t, 3)
	r := startRouterCfg(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.Dial = faultDialer(fab)
		cfg.RequestTimeout = time.Second
		cfg.HedgeDelay = 100 * time.Millisecond
		cfg.BackoffMax = 300 * time.Millisecond
	})
	pubs, subset, field := planWorkload(t, 150, 76)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	over := func(src query.PartialSource, e *query.Estimator) []func() (interface{}, error) {
		return []func() (interface{}, error){
			func() (interface{}, error) { return e.FieldAtMost(src, field, 3) },
			func() (interface{}, error) { return e.FieldAtMost(src, field, 9) },
			func() (interface{}, error) { return e.FieldMean(src, field) },
			func() (interface{}, error) { return e.FieldAtMost(src, field, 12) },
			func() (interface{}, error) { return subsetRecords(src, subset) },
			func() (interface{}, error) { return src.TotalRecords() },
		}
	}
	deck := over(r, ref.Estimator())
	var want []interface{}
	for i, q := range over(ref.Source(nil), ref.Estimator()) {
		w, err := q()
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		want = append(want, w)
	}
	// pass asks the deck once; before runs ahead of the query it names.
	pass := func(stage string, at int, before func()) {
		t.Helper()
		for i, q := range deck {
			if i == at {
				before()
			}
			if got, err := q(); err != nil || got != want[i] {
				t.Fatalf("fabric seed %d, stage %q: query %d answered %+v (err %v), want %+v\n%s",
					fabricSeed, stage, i, got, err, want[i], routerEvidence(r))
			}
		}
	}

	pass("all up", -1, nil)
	cold := keepMaskHits(t, nodes...)
	pass("all up, masks warm", -1, nil)
	if keepMaskHits(t, nodes...) == cold {
		t.Fatal("the repeated deck read no cached keep mask: the stages below would prove nothing about stale ones")
	}

	recoveries := r.FanoutCounters().Recoveries
	pass("node 0 dies mid-deck", len(deck)/2, func() {
		fab.PartitionBoth(linkTo(nodes[0].addr), nodes[0].addr)
	})
	if r.FanoutCounters().Recoveries == recoveries {
		t.Fatal("no fan-out was finished by a recovery round: the recovery filters went unexercised")
	}
	waitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 2 })
	pass("node 0 dead", -1, nil)

	fab.HealBoth(linkTo(nodes[0].addr), nodes[0].addr)
	waitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 3 })
	pass("node 0 back", -1, nil)
	pass("node 0 back, masks warm", -1, nil)
}

// TestPartialCoverageTyped kills RF nodes and checks the refusal is the
// typed ErrPartialCoverage carrying the unreachable spans of the user
// space, not a merge over a silently truncated record set.
func TestPartialCoverageTyped(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startRouterCfg(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.RequestTimeout = time.Second
		cfg.BackoffMax = 300 * time.Millisecond
	})
	pubs, _, field := planWorkload(t, 120, 75)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}

	nodes[0].srv.Close()
	nodes[1].srv.Close()
	waitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 1 })

	_, err := r.Estimator().FieldAtMost(r, field, 9)
	if err == nil {
		t.Fatal("query with RF nodes down succeeded; it must refuse a partial answer")
	}
	if !errors.Is(err, cluster.ErrPartialCoverage) {
		t.Fatalf("refusal is not typed ErrPartialCoverage: %v", err)
	}
	var cov *cluster.CoverageError
	if !errors.As(err, &cov) {
		t.Fatalf("refusal does not carry a *CoverageError: %v", err)
	}
	if cov.Live != 1 || cov.Total != 3 || cov.RF != 2 {
		t.Fatalf("coverage counts live=%d total=%d rf=%d, want 1/3/2", cov.Live, cov.Total, cov.RF)
	}
	if len(cov.Spans) == 0 {
		t.Fatal("coverage error carries no unreachable spans")
	}
	var frac float64
	for _, s := range cov.Spans {
		frac += s.Fraction()
	}
	if frac <= 0 || frac > 1 {
		t.Fatalf("unreachable fraction %v out of range (0, 1]", frac)
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("refusal does not render the spans: %v", err)
	}
}
