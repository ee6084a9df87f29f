package cluster_test

import (
	"strings"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/fleettest"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// TestReturningNodeDropsRefusedHints: at RF 2 with hinted handoff, a
// publish its live owner refuses — a conflicting sketch (Corollary 3.4) or
// one of a foreign length — still leaves a hint for the owner that is down,
// queued before the sends.  When that owner returns, the replay pushes the
// hint and the node refuses it too; the router drops it, counts it in
// cluster_hints_refused_total, and the node becomes query-live within a
// few sweeps, holding the record it was hinted before.  (Put back at the
// head of the queue, the refused hint kept the node out of every fan-out
// for good.)
func TestReturningNodeDropsRefusedHints(t *testing.T) {
	subset := bitvec.MustSubset(1, 3)
	for _, tc := range []struct {
		name    string
		refused func(p sketch.Published) sketch.Published
	}{
		{"a conflicting sketch", func(p sketch.Published) sketch.Published { p.S.Key ^= 1; return p }},
		{"a foreign length", func(p sketch.Published) sketch.Published {
			p.Subset, p.S.Length = bitvec.MustSubset(2), testLength+3
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := fleettest.StartNodes(t, 3)
			r := fleettest.StartRouter(t, nodes, 2, dynamic(nil))
			reg := obs.NewRegistry()
			r.RegisterMetrics(reg)
			dead := nodes[0]
			if err := dead.Srv.Close(); err != nil {
				t.Fatal(err)
			}
			fleettest.WaitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 2 })
			id := bitvec.UserID(3_000_000)
			for !containsAddr(r.Ring().Owners(id, 2), dead.Addr) {
				id++
			}
			p := sketch.Published{ID: id, Subset: subset, S: sketch.Sketch{Key: 5, Length: testLength}}
			if err := r.Publish(p); err != nil {
				t.Fatalf("hinted publish: %v", err)
			}
			if err := r.Publish(tc.refused(p)); err == nil || !wire.IsRefused(err.Error()) {
				t.Fatalf("the live owner answered %s with %v, want an admission refusal", tc.name, err)
			}
			dead.Restart(t)
			fleettest.WaitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 3 })
			if got, ok := dead.Eng.Table().Get(p.ID, p.Subset); !ok || got != p.S {
				t.Fatalf("the returned node holds (%v, %v) for the hinted record, want %v", got, ok, p.S)
			}
			if n := dead.Eng.Sketches(); n != 1 {
				t.Fatalf("the returned node holds %d records, want the one hinted record it admits", n)
			}
			if got := fleettest.Metric(t, fleettest.Render(t, reg), "cluster_hints_refused_total"); got != 1 {
				t.Fatalf("cluster_hints_refused_total = %v, want 1", got)
			}
		})
	}
}

// TestRouterBatchRefusalLandsThePrefix: at RF 2, a wire client's batch of
// [ℓ, ℓ, ℓ′, ℓ] through the router lands its first two records on every
// owner and answers with an error carrying wire.RefusedMarker — a refusal
// is an answer about the record, not about the node — so it leaves no
// hint, trips no breaker and every node stays query-live.
func TestRouterBatchRefusalLandsThePrefix(t *testing.T) {
	nodes := fleettest.StartNodes(t, 3)
	r := fleettest.StartRouter(t, nodes, 2, dynamic(nil))
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	front := server.NewFrontend(r)
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	cli, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	subset := bitvec.MustSubset(0, 4)
	rec := func(id uint64, length int) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: subset, S: sketch.Sketch{Key: id % 8, Length: length}}
	}
	batch := []sketch.Published{rec(11, testLength), rec(12, testLength), rec(13, testLength+1), rec(14, testLength)}
	if err := cli.PublishAll(batch); err == nil || !wire.IsRefused(err.Error()) {
		t.Fatalf("a batch with a foreign length third = %v, want an admission refusal", err)
	}
	byAddr := make(map[string]*fleettest.Node)
	for _, n := range nodes {
		byAddr[n.Addr] = n
	}
	for _, p := range batch[:2] {
		for _, owner := range r.Ring().Owners(p.ID, 2) {
			if got, ok := byAddr[owner].Eng.Table().Get(p.ID, p.Subset); !ok || got != p.S {
				t.Fatalf("owner %s of user %v holds (%v, %v), want %v", owner, p.ID, got, ok, p.S)
			}
		}
	}
	for _, n := range nodes {
		if _, ok := n.Eng.Table().Get(batch[2].ID, subset); ok {
			t.Fatalf("node %s holds the foreign-length record", n.Addr)
		}
	}
	if status := r.Status(); strings.Contains(status, "pending-hints=") || len(r.LiveNodes()) != 3 {
		t.Fatalf("a refusal left a hint or a node out of the fan-out:\n%s", status)
	}
	trips := 0
	for _, line := range strings.Split(fleettest.Render(t, reg), "\n") {
		if strings.HasPrefix(line, "cluster_node_breaker_trips_total{") {
			if trips++; !strings.HasSuffix(line, " 0") {
				t.Fatalf("a refusal tripped a breaker: %s", line)
			}
		}
	}
	if trips != len(nodes) {
		t.Fatalf("%d breaker trip series, want one a node", trips)
	}
}
