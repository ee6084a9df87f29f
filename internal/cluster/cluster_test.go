package cluster_test

import (
	"bytes"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/wire"
)

const (
	testP      = 0.3
	testLength = 10
)

func testSource() *prf.Biased {
	return prf.NewBiased(bytes.Repeat([]byte{0x5a}, prf.MinKeyBytes), prf.MustProb(testP))
}

// testNode is one in-process sketchd: an engine behind a real TCP server,
// its engine metrics on a registry of its own.
type testNode struct {
	addr string
	eng  *engine.Engine
	srv  *server.Server
	reg  *obs.Registry
}

// startNodes brings up n loopback nodes and registers their teardown.
func startNodes(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = startNodeAt(t, "", nil)
	}
	return nodes
}

// keepMaskHits sums the nodes' engine_keep_mask_hits_total: the keep-mask
// lookups their bitmap caches served.  A never-stale test reads it to know
// the masks were warm when the ring moved under them.
func keepMaskHits(t *testing.T, nodes ...*testNode) float64 {
	t.Helper()
	var hits float64
	for _, n := range nodes {
		hits += metricValue(t, renderRegistry(t, n.reg), "engine_keep_mask_hits_total")
	}
	return hits
}

// startRouter builds a fast-paced router over the nodes.
func startRouter(t *testing.T, nodes []*testNode, rf int) *cluster.Router {
	return startRouterCfg(t, nodes, rf, nil)
}

// startRouterCfg is startRouter with a config hook applied before the
// router starts, for tests pinning timeouts (hedge delay, request budget).
func startRouterCfg(t *testing.T, nodes []*testNode, rf int, mutate func(*cluster.Config)) *cluster.Router {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	cfg := cluster.Config{
		Nodes:        addrs,
		Replication:  rf,
		VNodes:       32,
		PingInterval: 100 * time.Millisecond,
		BackoffBase:  50 * time.Millisecond,
		BackoffMax:   time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := cluster.NewRouter(testSource(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// clusterWorkload sketches a population over a conjunctive subset and the
// single-bit subsets of a 4-bit field, returning the published records.
func clusterWorkload(t *testing.T, users int, seed uint64) ([]sketch.Published, bitvec.Subset, bitvec.IntField) {
	t.Helper()
	pop := dataset.UniformBinary(seed, users, 8, 0.4)
	field := bitvec.MustIntField(0, 4)
	subsets := []bitvec.Subset{bitvec.Range(0, 4)}
	subsets = append(subsets, query.FieldBitSubsets(field)...)
	sk, err := sketch.NewSketcher(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed + 1)
	var pubs []sketch.Published
	for _, profile := range pop.Profiles {
		ps, err := sk.SketchAll(rng, profile, subsets)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, ps...)
	}
	return pubs, bitvec.Range(0, 4), field
}

// referenceEngine ingests the records into a single fresh engine — the
// "one node holding the union" the distributed estimates must match bit
// for bit.
func referenceEngine(t *testing.T, pubs []sketch.Published) *engine.Engine {
	t.Helper()
	ref, err := engine.New(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(pubs); err != nil {
		t.Fatal(err)
	}
	return ref
}

func sameEstimate(a, b query.Estimate) bool {
	obs := a.Observed == b.Observed || (math.IsNaN(a.Observed) && math.IsNaN(b.Observed))
	return a.Fraction == b.Fraction && a.Raw == b.Raw && obs && a.Users == b.Users && a.P == b.P
}

// assertClusterMatchesReference checks the acceptance queries: Fraction,
// FieldMean and the Appendix F combinations must equal the single-engine
// answers bit for bit.
func assertClusterMatchesReference(t *testing.T, r *cluster.Router, ref *engine.Engine, subset bitvec.Subset, field bitvec.IntField) {
	t.Helper()
	value := bitvec.MustFromString("1010")
	want, err := ref.Conjunction(subset, value)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Estimator().Fraction(r, subset, value)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(want, got) {
		t.Fatalf("distributed Fraction %+v differs from reference %+v", got, want)
	}

	wantMean, err := ref.FieldMean(field)
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := r.Estimator().FieldMean(r, field)
	if err != nil {
		t.Fatal(err)
	}
	if wantMean != gotMean {
		t.Fatalf("distributed FieldMean %+v differs from reference %+v", gotMean, wantMean)
	}

	subs := []query.SubQuery{
		{Subset: field.BitSubset(1), Value: bitvec.MustFromString("1")},
		{Subset: field.BitSubset(2), Value: bitvec.MustFromString("1")},
	}
	wantU, err := ref.UnionConjunction(subs)
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := r.Estimator().UnionConjunction(r, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(wantU, gotU) {
		t.Fatalf("distributed UnionConjunction %+v differs from reference %+v", gotU, wantU)
	}

	wantX, err := ref.ExactlyOfK(subs, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotX, err := r.Estimator().ExactlyOfK(r, subs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(wantX, gotX) {
		t.Fatalf("distributed ExactlyOfK %+v differs from reference %+v", gotX, wantX)
	}
}

// TestClusterScatterGatherBitIdentical is acceptance criterion (a): a
// 3-node RF=2 cluster answers Fraction, FieldMean and the Appendix F
// Combine bit-identically to a single engine ingesting the same records.
func TestClusterScatterGatherBitIdentical(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startRouter(t, nodes, 2)
	pubs, subset, field := clusterWorkload(t, 400, 21)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	assertClusterMatchesReference(t, r, ref, subset, field)

	total, err := r.TotalRecords()
	if err != nil {
		t.Fatal(err)
	}
	if total != uint64(ref.Sketches()) {
		t.Fatalf("cluster reports %d records, reference holds %d", total, ref.Sketches())
	}

	// Replication actually happened: the nodes together hold RF copies.
	raw := 0
	for _, n := range nodes {
		raw += n.eng.Sketches()
	}
	if raw != 2*ref.Sketches() {
		t.Fatalf("nodes hold %d raw records, want rf=2 × %d", raw, ref.Sketches())
	}
}

// TestClusterNodeDeathFailover is acceptance criterion (b): killing one of
// three nodes at RF=2 loses no acknowledged publish — queries keep
// returning the exact single-engine answers over every acknowledged
// record, served by the surviving replicas.
func TestClusterNodeDeathFailover(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startRouter(t, nodes, 2)
	pubs, subset, field := clusterWorkload(t, 300, 33)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)

	// Abrupt kill: the server drops its listener and every open
	// connection, exactly what the router's pooled conns observe on a
	// crash.
	dead := nodes[0]
	if err := dead.srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Queries fail over on their own: the first fan-out marks the dead
	// node, retries over the survivors, and the ownership filters assign
	// every record to its surviving replica.
	assertClusterMatchesReference(t, r, ref, subset, field)

	// The router's live view converges to the survivors.
	deadline := time.Now().Add(5 * time.Second)
	for len(r.LiveNodes()) != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if live := r.LiveNodes(); len(live) != 2 {
		t.Fatalf("router still sees %v live after the kill", live)
	}
	if !strings.Contains(r.Status(), "dead") {
		t.Fatalf("status does not report the dead node:\n%s", r.Status())
	}

	// A publish owned by the dead node fails loudly — it is never
	// acknowledged, so the loss guarantee is not weakened.  One owned by
	// the survivors still succeeds.
	sk, err := sketch.NewSketcher(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	publishFresh := func(id bitvec.UserID) error {
		s, err := sk.Sketch(rng, bitvec.Profile{ID: id, Data: bitvec.MustFromString("10110011")}, subset)
		if err != nil {
			t.Fatal(err)
		}
		return r.Publish(sketch.Published{ID: id, Subset: subset, S: s})
	}
	foundDeadOwned, foundLiveOwned := false, false
	for id := bitvec.UserID(1_000_000); id < 1_000_200 && !(foundDeadOwned && foundLiveOwned); id++ {
		owners := r.Ring().Owners(id, 2)
		deadOwned := owners[0] == dead.addr || owners[1] == dead.addr
		if deadOwned && !foundDeadOwned {
			foundDeadOwned = true
			if err := publishFresh(id); err == nil {
				t.Fatalf("publish for user %d owned by dead node %s was acknowledged", id, dead.addr)
			}
		}
		if !deadOwned && !foundLiveOwned {
			foundLiveOwned = true
			if err := publishFresh(id); err != nil {
				t.Fatalf("publish for user %d with live owners %v failed: %v", id, owners, err)
			}
		}
	}
	if !foundDeadOwned || !foundLiveOwned {
		t.Fatal("id scan found no suitable owners — vnode layout degenerate?")
	}
}

// TestClusterRefusesPartialCoverage: with RF or more nodes down an
// acknowledged record may have no live replica, so queries must fail
// loudly instead of merging a silently truncated record set into a
// confidently wrong estimate.
func TestClusterRefusesPartialCoverage(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startRouter(t, nodes, 2)
	pubs, subset, _ := clusterWorkload(t, 100, 77)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Estimator().Fraction(r, subset, bitvec.MustFromString("1010"))
	if err == nil {
		t.Fatal("query answered with 2 of 3 nodes dead at rf=2")
	}
	if !strings.Contains(err.Error(), "refusing a partial answer") {
		t.Fatalf("partial-coverage refusal not loud: %v", err)
	}
}

// A wire client is a plan source like the router and the engine: every
// estimator asks a node or a router through it.
var _ query.PartialSource = (*server.Client)(nil)

// TestClusterFrontendServesWireClients: the router frontend speaks the
// node protocol, so an unmodified client publishes and queries through it,
// and ping returns the cluster status.
func TestClusterFrontendServesWireClients(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startRouter(t, nodes, 2)
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

	pubs, subset, _ := clusterWorkload(t, 100, 55)
	if err := cli.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	value := bitvec.MustFromString("1010")
	want, err := ref.Conjunction(subset, value)
	if err != nil {
		t.Fatal(err)
	}
	// The client is a plan source: the router merges the counters, the
	// asker's estimator debiases them.
	got, err := r.Estimator().Fraction(cli, subset, value)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEstimate(got, want) {
		t.Fatalf("frontend query %+v differs from reference %+v", got, want)
	}

	status, err := cli.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "router ok") || !strings.Contains(status, nodes[0].addr) {
		t.Fatalf("router ping did not return cluster status:\n%s", status)
	}

	// An identical re-publish through the router is idempotent (that is
	// what lets interrupted replicated publishes converge on retry); a
	// conflicting sketch for the same (user, subset) surfaces the node's
	// refusal.
	if err := cli.Publish(pubs[0]); err != nil {
		t.Fatalf("identical re-publish through the router: %v, want idempotent ack", err)
	}
	conflict := pubs[0]
	conflict.S.Key ^= 1
	if err := cli.Publish(conflict); err == nil {
		t.Fatal("conflicting publish through the router was acknowledged")
	}

	// The frontend serves unfiltered plans only: ownership filters are the
	// router's to set, so a plan carrying one is refused by name, as is a
	// batch carrying a ring epoch; the retired one-evaluation opcode 12 is
	// an unknown message type; and no refusal ends the connection.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.ClientHandshake(conn); err != nil {
		t.Fatal(err)
	}
	filtered := wire.EncodePlanQuery(&wire.Filter{Nodes: []string{nodes[0].addr}, VNodes: 8, Self: nodes[0].addr}, query.NewPlan())
	if err := wire.WriteFrame(conn, wire.TypePlanQuery, filtered); err != nil {
		t.Fatal(err)
	}
	if msgType, payload, err := wire.ReadFrame(conn); err != nil || msgType != wire.TypeError || string(payload) != server.ErrFilteredPlan.Error() {
		t.Fatalf("a filtered plan answered with type %d (%v): %s", msgType, err, payload)
	}
	// A batch stamped with a ring epoch is the push a router sends its
	// nodes: the frontend refuses it by name and publishes none of it.
	stray := pubs[0]
	stray.ID = 1 << 40
	if err := wire.WriteFrame(conn, wire.TypePublishBatch, wire.EncodePublishBatch(r.Epoch(), []sketch.Published{stray})); err != nil {
		t.Fatal(err)
	}
	if msgType, payload, err := wire.ReadFrame(conn); err != nil || msgType != wire.TypeError || string(payload) != server.ErrEpochBatch.Error() {
		t.Fatalf("an epoch-stamped batch answered with type %d (%v): %s", msgType, err, payload)
	}
	for _, n := range nodes {
		if _, ok := n.eng.Table().Get(stray.ID, stray.Subset); ok {
			t.Fatalf("node %s holds a record of the refused batch", n.addr)
		}
	}
	if err := wire.WriteFrame(conn, 12, []byte{4, 0}); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.TypeError || !strings.Contains(string(payload), "unknown message type 12") {
		t.Fatalf("opcode 12 answered with type %d: %s", msgType, payload)
	}
	if err := wire.WriteFrame(conn, wire.TypePing, nil); err != nil {
		t.Fatal(err)
	}
	if msgType, payload, err = wire.ReadFrame(conn); err != nil || msgType != wire.TypePong {
		t.Fatalf("ping after the refusal answered with type %d (%v): %s", msgType, err, payload)
	}
}

// TestClusterConcurrentIngestAndQuery runs routed publishes and fan-out
// queries concurrently under -race.
func TestClusterConcurrentIngestAndQuery(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startRouter(t, nodes, 2)
	subset := bitvec.Range(0, 4)
	sk, err := sketch.NewSketcher(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}

	const publishers, perPublisher = 4, 100
	var wg sync.WaitGroup
	errCh := make(chan error, publishers+2)
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(1000 + w))
			for i := 0; i < perPublisher; i++ {
				id := bitvec.UserID(1 + w*perPublisher + i)
				s, err := sk.Sketch(rng, bitvec.Profile{ID: id, Data: bitvec.MustFromString("11001010")}, subset)
				if err != nil {
					errCh <- err
					return
				}
				if err := r.Publish(sketch.Published{ID: id, Subset: subset, S: s}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			value := bitvec.MustFromString("1100")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Estimator().Fraction(r, subset, value); err != nil && !strings.Contains(err.Error(), "no sketches") {
					errCh <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Wait for publishers by polling the record count, then stop queriers.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		n, err := r.TotalRecords()
		if err == nil && n == publishers*perPublisher {
			break
		}
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	got, err := r.Estimator().Fraction(r, subset, bitvec.MustFromString("1100"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Users != publishers*perPublisher {
		t.Fatalf("final query covers %d users, want %d", got.Users, publishers*perPublisher)
	}
}
