package cluster_test

import (
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/obs"
)

// renderRegistry renders reg and fails loudly if the exposition breaks.
func renderRegistry(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.RenderText(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	return sb.String()
}

// metricValue parses a rendered exposition and returns the value of the
// named family's only sample.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	families, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, f := range families {
		if f.Name != name {
			continue
		}
		if len(f.Samples) != 1 {
			t.Fatalf("%s has %d samples, want 1", name, len(f.Samples))
		}
		return f.Samples[0].Value
	}
	t.Fatalf("family %s not rendered", name)
	return 0
}

// histCount returns the _count of the named histogram family.
func histCount(t *testing.T, text, name string) float64 {
	t.Helper()
	families, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, f := range families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if s.Name == name+"_count" {
				return s.Value
			}
		}
		t.Fatalf("%s rendered without _count", name)
	}
	t.Fatalf("histogram %s not rendered", name)
	return 0
}

// TestRouterMetricsExpositionLintClean exercises the router's full metric
// surface — publish and fan-out histograms, robustness counters, per-node
// breaker and hint collectors — and holds the rendered exposition to the
// same format lint CI runs against the live daemons.
func TestRouterMetricsExpositionLintClean(t *testing.T) {
	nodes := startNodes(t, 2)
	r := startRouter(t, nodes, 2)
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)

	pubs, subset, _ := clusterWorkload(t, 120, 9)
	publishAllParallel(t, r, pubs)
	value := bitvec.MustFromString(strings.Repeat("1", len(subset.Positions())))
	if _, err := r.Estimator().Fraction(r, subset, value); err != nil {
		t.Fatalf("conjunction: %v", err)
	}

	text := renderRegistry(t, reg)
	if errs := obs.Lint(text); len(errs) > 0 {
		t.Fatalf("exposition lint: %v\n%s", errs, text)
	}
	if got := histCount(t, text, "cluster_publish_seconds"); got == 0 {
		t.Fatal("publish latency histogram empty after publishes")
	}
	if got := histCount(t, text, "cluster_fanout_rtt_seconds"); got == 0 {
		t.Fatal("fan-out RTT histogram empty after a query")
	}
	if got := metricValue(t, text, "cluster_members"); got != 2 {
		t.Fatalf("cluster_members = %v, want 2", got)
	}
	if got := metricValue(t, text, "cluster_live_nodes"); got != 2 {
		t.Fatalf("cluster_live_nodes = %v, want 2", got)
	}
	// Per-node breaker state is one-hot: exactly one of the three state
	// series per node carries a 1.
	families, err := obs.ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	perNode := make(map[string]float64)
	for _, f := range families {
		if f.Name != "cluster_node_breaker_state" {
			continue
		}
		for _, s := range f.Samples {
			perNode[s.Label("node")] += s.Value
		}
	}
	if len(perNode) != 2 {
		t.Fatalf("breaker state rendered for %d nodes, want 2", len(perNode))
	}
	for node, sum := range perNode {
		if sum != 1 {
			t.Fatalf("breaker state for %s sums to %v, want exactly one hot state", node, sum)
		}
	}
}

// TestRebalanceScrapeMovedMonotonic scrapes the registry from inside the
// per-batch transfer hook while a join streams: cluster_rebalance_moved
// must never decrease across scrapes, must grow overall, the active gauge
// must read 1 mid-stream, every mid-stream exposition must pass the lint,
// and after cutover the progress gauges must read idle again.
func TestRebalanceScrapeMovedMonotonic(t *testing.T) {
	nodes := startNodes(t, 2)
	reg := obs.NewRegistry()

	type scrape struct {
		active, moved float64
	}
	var (
		scrapes []scrape
		render  func()
	)
	r := startDynamicRouter(t, nodes, 2, func() {
		if render != nil {
			render()
		}
	})
	r.RegisterMetrics(reg)

	pubs, _, _ := clusterWorkload(t, 1500, 33)
	publishAllParallel(t, r, pubs)

	render = func() {
		text := renderRegistry(t, reg)
		if errs := obs.Lint(text); len(errs) > 0 {
			t.Errorf("mid-rebalance exposition lint: %v", errs)
		}
		scrapes = append(scrapes, scrape{
			active: metricValue(t, text, "cluster_rebalance_active"),
			moved:  metricValue(t, text, "cluster_rebalance_moved"),
		})
	}
	node3 := startNodeAt(t, "", nil)
	if err := r.Join(node3.addr); err != nil {
		t.Fatalf("join: %v", err)
	}
	render = nil

	if len(scrapes) < 2 {
		t.Fatalf("only %d mid-rebalance scrapes — grow the workload", len(scrapes))
	}
	for i, s := range scrapes {
		if s.active != 1 {
			t.Fatalf("scrape %d: cluster_rebalance_active = %v mid-stream, want 1", i, s.active)
		}
		if i > 0 && s.moved < scrapes[i-1].moved {
			t.Fatalf("scrape %d: moved went backwards %v -> %v", i, scrapes[i-1].moved, s.moved)
		}
	}
	first, last := scrapes[0].moved, scrapes[len(scrapes)-1].moved
	if last <= first {
		t.Fatalf("moved did not grow across the stream: first %v, last %v", first, last)
	}

	// After cutover the migration is gone and the progress gauges idle.
	text := renderRegistry(t, reg)
	if got := metricValue(t, text, "cluster_rebalance_active"); got != 0 {
		t.Fatalf("cluster_rebalance_active = %v after cutover, want 0", got)
	}
	if got := metricValue(t, text, "cluster_ring_epoch"); got != 2 {
		t.Fatalf("cluster_ring_epoch = %v after join, want 2", got)
	}
	if got := metricValue(t, text, "cluster_members"); got != 3 {
		t.Fatalf("cluster_members = %v after join, want 3", got)
	}
}
