package cluster_test

import (
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/store"
	"sketchprivacy/internal/wire"
)

// startNodeAt brings up one in-process sketchd, optionally on a fixed
// address (for restarts) and optionally durable.
func startNodeAt(t *testing.T, addr string, st store.Store) *testNode {
	t.Helper()
	eng, err := engine.New(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		if err := eng.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	eng.SetMetrics(reg)
	srv := server.New(eng)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{addr: bound, eng: eng, srv: srv, reg: reg}
	t.Cleanup(func() { srv.Close() })
	return n
}

// startDynamicRouter builds a fast-paced router with hinted handoff and an
// optional hook that runs after each snapshot batch of a rebalance: one per
// wire.MaxTransferBatch records a source holds, so a stream over two or more
// sources gives it a moment to fire between them.
func startDynamicRouter(t *testing.T, nodes []*testNode, rf int, hook func()) *cluster.Router {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	r, err := cluster.NewRouter(testSource(), cluster.Config{
		Nodes:           addrs,
		Replication:     rf,
		VNodes:          32,
		PingInterval:    50 * time.Millisecond,
		BackoffBase:     25 * time.Millisecond,
		BackoffMax:      250 * time.Millisecond,
		OnTransferBatch: hook,
		HintedHandoff:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// publishAllParallel loads records through the router with several
// publishers, since rebalance tests move tens of thousands of records.
func publishAllParallel(t *testing.T, r *cluster.Router, pubs []sketch.Published) {
	t.Helper()
	const workers = 8
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pubs); i += workers {
				if err := r.Publish(pubs[i]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// rebalanceWorkloadUsers sizes the acceptance workload: ≥30k records (5
// subsets per user) in a full run, a lighter load under -short.
func rebalanceWorkloadUsers(t *testing.T) int {
	if testing.Short() {
		return 1200
	}
	return 6000
}

// TestClusterJoinRebalanceDrainBitIdentical is the PR acceptance
// criterion: start 2 nodes, load ≥30k records, join a 3rd, rebalance,
// drain node 1 — Fraction, FieldMean and the Appendix F combinations are
// bit-identical to a single merged engine at every step, including while a
// transfer is in flight, and including records published mid-migration
// (the dual-write path).
func TestClusterJoinRebalanceDrainBitIdentical(t *testing.T) {
	nodes := startNodes(t, 2)
	users := rebalanceWorkloadUsers(t)

	var (
		hookMu      sync.Mutex
		hookFn      func()
		hookArmed   atomic.Bool
		hookFirings atomic.Int64
	)
	r := startDynamicRouter(t, nodes, 2, func() {
		hookFirings.Add(1)
		if !hookArmed.Load() {
			return
		}
		hookMu.Lock()
		fn := hookFn
		hookMu.Unlock()
		if fn != nil {
			fn()
		}
	})
	setHook := func(fn func()) {
		hookMu.Lock()
		hookFn = fn
		hookMu.Unlock()
		hookArmed.Store(fn != nil)
	}

	pubs, subset, field := clusterWorkload(t, users, 21)
	if len(pubs) < 30_000 && !testing.Short() {
		t.Fatalf("workload holds %d records, acceptance needs ≥30000", len(pubs))
	}
	publishAllParallel(t, r, pubs)
	ref := referenceEngine(t, pubs)

	// Step 0: the 2-node baseline.
	assertClusterMatchesReference(t, r, ref, subset, field)
	if got := r.Epoch(); got != 1 {
		t.Fatalf("fresh router at epoch %d, want 1", got)
	}

	// Asked again, so every node answers the step that follows with keep
	// masks cached under the 2-node ring: a mask that outlived its
	// predicate would double-count or drop exactly the records that move.
	assertClusterMatchesReference(t, r, ref, subset, field)
	if keepMaskHits(t, nodes...) == 0 {
		t.Fatal("a repeated query read no cached keep mask: the join below would prove nothing about stale ones")
	}

	// Step 1: join a 3rd node.  Mid-transfer the hook (a) asserts the
	// acceptance queries still match the reference bit for bit and (b)
	// publishes fresh records, which the migration dual-write must land on
	// both rings' owners.
	node3 := startNodeAt(t, "", nil)
	sk, err := sketch.NewSketcher(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4242)
	freshID := bitvec.UserID(10_000_000)
	midJoinChecks := 0
	setHook(func() {
		if midJoinChecks >= 3 {
			return
		}
		midJoinChecks++
		assertClusterMatchesReference(t, r, ref, subset, field)
		// Publish a fresh record while the transfer streams.
		s, err := sk.Sketch(rng, bitvec.Profile{ID: freshID, Data: bitvec.MustFromString("10110010")}, subset)
		if err != nil {
			t.Fatal(err)
		}
		p := sketch.Published{ID: freshID, Subset: subset, S: s}
		if err := r.Publish(p); err != nil {
			t.Fatalf("mid-rebalance publish: %v", err)
		}
		if err := ref.Ingest(p); err != nil {
			t.Fatal(err)
		}
		freshID++
	})
	firings := hookFirings.Load()
	if err := r.Join(node3.addr); err != nil {
		t.Fatal(err)
	}
	setHook(nil)
	if n := hookFirings.Load() - firings; midJoinChecks == 0 || n < 2 {
		t.Fatalf("the join ran %d mid-transfer checks over %d snapshot batches, want ≥ 1 over ≥ 2 — grow the workload", midJoinChecks, n)
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("post-join epoch %d, want 2", got)
	}
	if got := len(r.Members()); got != 3 {
		t.Fatalf("post-join membership %v", r.Members())
	}
	if node3.eng.Sketches() == 0 {
		t.Fatal("join moved no sketches onto the new node")
	}
	assertClusterMatchesReference(t, r, ref, subset, field)
	total, err := r.TotalRecords()
	if err != nil {
		t.Fatal(err)
	}
	if total != uint64(ref.Sketches()) {
		t.Fatalf("post-join cluster reports %d records, reference holds %d", total, ref.Sketches())
	}

	// The new ring's owners actually hold their records: spot-check that
	// every sampled record is present on each of its new owners.
	ring := r.Ring()
	engines := map[string]*engine.Engine{nodes[0].addr: nodes[0].eng, nodes[1].addr: nodes[1].eng, node3.addr: node3.eng}
	for i := 0; i < len(pubs); i += 997 {
		p := pubs[i]
		for _, owner := range ring.Owners(p.ID, 2) {
			if _, ok := engines[owner].Table().Get(p.ID, p.Subset); !ok {
				t.Fatalf("record (user %v, %v) missing from new owner %s", p.ID, p.Subset, owner)
			}
		}
	}

	// Step 2: drain node 1, with the same mid-transfer checks — and the
	// 3-node ring's masks warm, as before the join.
	assertClusterMatchesReference(t, r, ref, subset, field)
	midDrainChecks := 0
	setHook(func() {
		if midDrainChecks >= 3 {
			return
		}
		midDrainChecks++
		assertClusterMatchesReference(t, r, ref, subset, field)
	})
	firings = hookFirings.Load()
	if err := r.Drain(nodes[0].addr); err != nil {
		t.Fatal(err)
	}
	setHook(nil)
	if n := hookFirings.Load() - firings; midDrainChecks == 0 || n < 2 {
		t.Fatalf("the drain ran %d mid-transfer checks over %d snapshot batches, want ≥ 1 over ≥ 2", midDrainChecks, n)
	}
	if got := r.Epoch(); got != 3 {
		t.Fatalf("post-drain epoch %d, want 3", got)
	}
	members := r.Members()
	if len(members) != 2 || containsAddr(members, nodes[0].addr) {
		t.Fatalf("post-drain membership %v still holds the drained node", members)
	}
	assertClusterMatchesReference(t, r, ref, subset, field)
	total, err = r.TotalRecords()
	if err != nil {
		t.Fatal(err)
	}
	if total != uint64(ref.Sketches()) {
		t.Fatalf("post-drain cluster reports %d records, reference holds %d", total, ref.Sketches())
	}

	// The drained node is truly out: killing it changes nothing.
	if err := nodes[0].srv.Close(); err != nil {
		t.Fatal(err)
	}
	assertClusterMatchesReference(t, r, ref, subset, field)

	// And the status surfaces the new world.
	status := r.Status()
	if !strings.Contains(status, "epoch=3") {
		t.Fatalf("status does not report the epoch:\n%s", status)
	}
	if strings.Contains(status, nodes[0].addr) {
		t.Fatalf("status still lists the drained node:\n%s", status)
	}
	rb := r.RebalanceStatus()
	if !strings.Contains(rb, "idle") || !strings.Contains(rb, "drain") || !strings.Contains(rb, "ok in") {
		t.Fatalf("rebalance status does not summarize the last drain:\n%s", rb)
	}
}

func containsAddr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestClusterJoinWithDurableStores runs a join+drain cycle over nodes
// backed by the durable store, exercising the segment-at-a-time
// store.BatchReader transfer path end to end.
func TestClusterJoinWithDurableStores(t *testing.T) {
	openStore := func(dir string) *store.Durable {
		st, err := store.Open(store.Options{
			Dir:             dir,
			Shards:          2,
			FlushThreshold:  8 << 10, // many segments, so streams span several
			CompactInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	base := t.TempDir()
	n1 := startNodeAt(t, "", openStore(filepath.Join(base, "n1")))
	n2 := startNodeAt(t, "", openStore(filepath.Join(base, "n2")))
	r := startDynamicRouter(t, []*testNode{n1, n2}, 2, nil)

	pubs, subset, field := clusterWorkload(t, 600, 91)
	publishAllParallel(t, r, pubs)
	ref := referenceEngine(t, pubs)
	assertClusterMatchesReference(t, r, ref, subset, field)

	n3 := startNodeAt(t, "", openStore(filepath.Join(base, "n3")))
	if err := r.Join(n3.addr); err != nil {
		t.Fatal(err)
	}
	assertClusterMatchesReference(t, r, ref, subset, field)
	if n3.eng.Sketches() == 0 {
		t.Fatal("durable join moved no sketches")
	}
	if err := r.Drain(n1.addr); err != nil {
		t.Fatal(err)
	}
	assertClusterMatchesReference(t, r, ref, subset, field)
}

// TestClusterJoinSurvivesDestinationKill: SIGKILL-equivalent of the
// destination mid-transfer.  The join must fail loudly, roll the
// migration back (membership and epoch untouched, queries exact), and a
// retry after the node returns must converge.
func TestClusterJoinSurvivesDestinationKill(t *testing.T) {
	nodes := startNodes(t, 2)
	var killOnce sync.Once
	var node3 *testNode
	var r *cluster.Router
	r = startDynamicRouter(t, nodes, 2, func() {
		killOnce.Do(func() {
			if err := node3.srv.Close(); err != nil {
				t.Error(err)
			}
		})
	})
	pubs, subset, field := clusterWorkload(t, 400, 7)
	publishAllParallel(t, r, pubs)
	ref := referenceEngine(t, pubs)

	node3 = startNodeAt(t, "", nil)
	addr3 := node3.addr
	if err := r.Join(addr3); err == nil {
		t.Fatal("join succeeded although the destination died mid-transfer")
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("failed join left epoch %d, want 1", got)
	}
	if got := len(r.Members()); got != 2 {
		t.Fatalf("failed join left membership %v", r.Members())
	}
	assertClusterMatchesReference(t, r, ref, subset, field)

	// "Restart" the destination on the same address with its engine intact
	// (the partial transfer it already holds makes the retry exercise the
	// idempotent path) and retry.
	eng3 := node3.eng
	srv3 := server.New(eng3)
	if _, err := srv3.Listen(addr3); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv3.Close() })
	if err := r.Join(addr3); err != nil {
		t.Fatalf("retried join after restart: %v", err)
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("post-retry epoch %d, want 2", got)
	}
	assertClusterMatchesReference(t, r, ref, subset, field)
	if eng3.Sketches() == 0 {
		t.Fatal("retried join moved no sketches")
	}
}

// TestClusterJoinSurvivesSourceKill: killing a transfer source
// mid-rebalance fails the join loudly; with one dead node under RF=2 the
// cluster still answers exactly over the surviving replicas.  The victim is
// the last source the stream reads, killed after the first source's batch,
// so it dies before it is read.
func TestClusterJoinSurvivesSourceKill(t *testing.T) {
	nodes := startNodes(t, 3)
	var killOnce sync.Once
	var r *cluster.Router
	r = startDynamicRouter(t, nodes, 2, func() {
		killOnce.Do(func() {
			members := r.Members()
			for _, n := range nodes {
				if n.addr == members[len(members)-1] {
					if err := n.srv.Close(); err != nil {
						t.Error(err)
					}
				}
			}
		})
	})
	pubs, subset, field := clusterWorkload(t, 400, 13)
	publishAllParallel(t, r, pubs)
	ref := referenceEngine(t, pubs)

	node4 := startNodeAt(t, "", nil)
	if err := r.Join(node4.addr); err == nil {
		t.Fatal("join succeeded although a source died mid-transfer")
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("failed join left epoch %d, want 1", got)
	}
	assertClusterMatchesReference(t, r, ref, subset, field)
}

// TestClusterJoinDrainRace: a join and a drain issued concurrently must
// serialize (never interleave two rebalance streams) and both complete,
// leaving an exact cluster.
func TestClusterJoinDrainRace(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startDynamicRouter(t, nodes, 2, nil)
	pubs, subset, field := clusterWorkload(t, 500, 31)
	publishAllParallel(t, r, pubs)
	ref := referenceEngine(t, pubs)

	node4 := startNodeAt(t, "", nil)
	var wg sync.WaitGroup
	var joinErr, drainErr error
	wg.Add(2)
	go func() { defer wg.Done(); joinErr = r.Join(node4.addr) }()
	go func() { defer wg.Done(); drainErr = r.Drain(nodes[2].addr) }()
	wg.Wait()
	if joinErr != nil {
		t.Fatalf("join: %v", joinErr)
	}
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}
	if got := r.Epoch(); got != 3 {
		t.Fatalf("after join+drain epoch %d, want 3", got)
	}
	members := r.Members()
	if len(members) != 3 || containsAddr(members, nodes[2].addr) || !containsAddr(members, node4.addr) {
		t.Fatalf("after join+drain membership %v", members)
	}
	assertClusterMatchesReference(t, r, ref, subset, field)
	total, err := r.TotalRecords()
	if err != nil {
		t.Fatal(err)
	}
	if total != uint64(ref.Sketches()) {
		t.Fatalf("cluster reports %d records, reference holds %d", total, ref.Sketches())
	}
}

// TestClusterHintedHandoff: publishes accepted while a replica is down are
// queued, queries stay exact meanwhile (the restoring node is excluded
// from fan-outs), and the hints replay when the node returns — after
// which the node holds every record it missed.
func TestClusterHintedHandoff(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startDynamicRouter(t, nodes, 2, nil)
	pubs, subset, field := clusterWorkload(t, 300, 47)
	publishAllParallel(t, r, pubs)
	ref := referenceEngine(t, pubs)

	// Kill node 0 and wait for the router to notice.
	dead := nodes[0]
	if err := dead.srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 2 })

	// Publish records owned by the dead node: with hinted handoff they
	// succeed, acknowledged by the live owners.
	sk, err := sketch.NewSketcher(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	hinted := 0
	for id := bitvec.UserID(2_000_000); id < 2_000_400 && hinted < 20; id++ {
		owners := r.Ring().Owners(id, 2)
		if !containsAddr(owners, dead.addr) {
			continue
		}
		s, err := sk.Sketch(rng, bitvec.Profile{ID: id, Data: bitvec.MustFromString("01011001")}, subset)
		if err != nil {
			t.Fatal(err)
		}
		p := sketch.Published{ID: id, Subset: subset, S: s}
		if err := r.Publish(p); err != nil {
			t.Fatalf("hinted publish for user %v: %v", id, err)
		}
		if err := ref.Ingest(p); err != nil {
			t.Fatal(err)
		}
		hinted++
	}
	if hinted == 0 {
		t.Fatal("no user owned by the dead node found")
	}
	// Queries remain exact while the hints are queued.
	assertClusterMatchesReference(t, r, ref, subset, field)
	if !strings.Contains(r.Status(), "pending-hints=") {
		t.Fatalf("status does not surface the pending hints:\n%s", r.Status())
	}

	// Restart the node on its address with its engine intact; the sweep
	// replays the hints and only then readmits it to fan-outs.
	srv := server.New(dead.eng)
	if _, err := srv.Listen(dead.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	waitFor(t, 10*time.Second, func() bool { return len(r.LiveNodes()) == 3 })
	assertClusterMatchesReference(t, r, ref, subset, field)
	// The returned node holds every record it was hinted.
	for id := bitvec.UserID(2_000_000); id < 2_000_400; id++ {
		owners := r.Ring().Owners(id, 2)
		if !containsAddr(owners, dead.addr) {
			continue
		}
		if _, ok := ref.Table().Get(id, subset); !ok {
			continue // never published
		}
		if _, ok := dead.eng.Table().Get(id, subset); !ok {
			t.Fatalf("returned node is missing hinted record for user %v", id)
		}
	}
}

// TestClusterStaleEpochRefused: after a cutover, a plan query built for
// the previous epoch is refused by the node with the recognisable marker —
// the guard that keeps a racing fan-out from merging mixed-ring counters.
func TestClusterStaleEpochRefused(t *testing.T) {
	nodes := startNodes(t, 2)
	r := startDynamicRouter(t, nodes, 2, nil)
	pubs, _, _ := clusterWorkload(t, 100, 3)
	publishAllParallel(t, r, pubs)

	node3 := startNodeAt(t, "", nil)
	if err := r.Join(node3.addr); err != nil {
		t.Fatal(err)
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("epoch %d after join, want 2", got)
	}

	// Speak to a node directly with an epoch-1 filter: refused, loudly.
	conn, err := net.Dial("tcp", nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.ClientHandshake(conn); err != nil {
		t.Fatal(err)
	}
	members := r.Members()
	stale := &wire.Filter{
		Epoch:  1,
		Nodes:  members,
		VNodes: 32,
		Self:   nodes[0].addr,
		Live:   members,
	}
	total := query.NewPlan()
	total.AddTotalRecords()
	if err := wire.WriteFrame(conn, wire.TypePlanQuery, wire.EncodePlanQuery(stale, total)); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.TypeError {
		t.Fatalf("stale-epoch plan answered with type %d, want TypeError", msgType)
	}
	if !wire.IsStaleEpoch(string(payload)) {
		t.Fatalf("refusal does not carry the stale-epoch marker: %s", payload)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFreshRouterAdoptsAdvancedEpoch: a router started against a cluster
// whose ring epoch advanced under a previous router (a replacement
// sketchrouter, or a gateway's embedded router) fast-forwards its epoch
// from the nodes' pongs instead of having every fan-out refused as stale
// forever.
func TestFreshRouterAdoptsAdvancedEpoch(t *testing.T) {
	nodes := startNodes(t, 3)
	r1 := startRouter(t, nodes, 2)
	pubs, subset, _ := clusterWorkload(t, 40, 17)
	if err := r1.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	node4 := startNodeAt(t, "", nil)
	if err := r1.Join(node4.addr); err != nil {
		t.Fatal(err)
	}
	if got := r1.Epoch(); got != 2 {
		t.Fatalf("post-join epoch %d, want 2", got)
	}
	want, err := r1.Estimator().Fraction(r1, subset, bitvec.MustFromString("1010"))
	if err != nil {
		t.Fatal(err)
	}

	// A second router over the post-join membership starts at epoch 1;
	// its ping sweep must adopt epoch 2 before the nodes will answer.
	r2 := startRouter(t, append(nodes, node4), 2)
	deadline := time.Now().Add(5 * time.Second)
	for r2.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fresh router stuck at epoch %d, cluster is at 2", r2.Epoch())
		}
		time.Sleep(20 * time.Millisecond)
	}
	got, err := r2.Estimator().Fraction(r2, subset, bitvec.MustFromString("1010"))
	if err != nil {
		t.Fatalf("fresh router's query refused after epoch adoption: %v", err)
	}
	if !sameEstimate(got, want) {
		t.Fatalf("fresh router answers %v, previous router answered %v", got, want)
	}
}
