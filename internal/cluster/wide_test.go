package cluster_test

import (
	"strings"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/fleettest"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// wideRecords fabricates count records over a 16-position subset — 159
// encoded bytes each, so 6 600 of them fill a frame that holds 32 000
// single-bit ones — for users from..from+count-1, or, with ownedBy, the
// first count users from there up that the ring places on that node.
func wideRecords(from bitvec.UserID, count int, ring *cluster.Ring, ownedBy string) []sketch.Published {
	wide := bitvec.Range(0, 16)
	ps := make([]sketch.Published, 0, count)
	for id := from; len(ps) < count; id++ {
		if ring != nil && !containsAddr(ring.Owners(id, 2), ownedBy) {
			continue
		}
		ps = append(ps, sketch.Published{ID: id, Subset: wide, S: sketch.Sketch{Key: uint64(id) % 1024, Length: testLength}})
	}
	return ps
}

// TestWideSubsetsCutByBytes: the paper's error does not grow with the
// conjunction's size, so wide subsets are the intended use — and a batch
// of them cut by record count alone outgrows the 1 MiB frame.  Every
// sender cuts by bytes: a client's PublishAll to a node and to the router
// endpoint, a node's snapshot reply to an 8192-record read, the rebalance's
// per-destination push and the hint replay all move 20 000 records over a
// 16-position subset, where each used to fail with "frame exceeds maximum
// size" before sending or on every retry.
func TestWideSubsetsCutByBytes(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 12_000 // a node still holds ≈ 8 000: an 8192-record read outgrows a frame
	}
	pubs := wideRecords(1, n, nil, "")
	if fit, err := wire.FrameBatch(pubs); err != nil || fit >= wire.MaxTransferBatch {
		t.Fatalf("%d wide records fit one frame (%v): the test cuts nothing", fit, err)
	}
	wide, value := pubs[0].Subset, bitvec.MustFromString("1010101010101010")

	// A client's batch to a node.
	solo := fleettest.StartNodes(t, 1)[0]
	cli, err := server.Dial(solo.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.PublishAll(pubs); err != nil {
		t.Fatalf("PublishAll of wide records to a node: %v", err)
	}
	if got := solo.Eng.Sketches(); got != n {
		t.Fatalf("the node holds %d records after PublishAll, want %d", got, n)
	}
	want, err := solo.Eng.Conjunction(wide, value)
	if err != nil {
		t.Fatal(err)
	}

	// The same batch to the router endpoint.
	nodes := fleettest.StartNodes(t, 3)
	r := fleettest.StartRouter(t, nodes, 2, func(c *cluster.Config) {
		c.HintedHandoff = true
		c.MaxHintsPerNode = wire.MaxTransferBatch
		c.PingInterval = 50 * time.Millisecond
	})
	front := server.NewFrontend(r)
	frontAddr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	rcli, err := server.Dial(frontAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcli.Close()
	if err := rcli.PublishAll(pubs); err != nil {
		t.Fatalf("PublishAll of wide records to the router: %v", err)
	}
	same := func(when string) {
		t.Helper()
		got, err := r.Estimator().Fraction(r, wide, value)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !sameEstimate(got, want) {
			t.Fatalf("%s the cluster answers %+v, one node holding the records %+v", when, got, want)
		}
	}
	same("after the routed publish")

	// A join reads every member 8192 records at a time and pushes what
	// moves: the nodes cut their replies, the router its pushes.
	joiner := fleettest.StartNode(t, nil)
	if err := r.Join(joiner.Addr); err != nil {
		t.Fatalf("join over wide records: %v", err)
	}
	if joiner.Eng.Sketches() == 0 {
		t.Fatal("the join moved nothing onto the new node")
	}
	same("after the join")

	// A hint queue of them: one member down, 7 000 publishes it owns.
	dead := nodes[0]
	if err := dead.Srv.Close(); err != nil {
		t.Fatal(err)
	}
	fleettest.WaitFor(t, 5*time.Second, func() bool { return len(r.LiveNodes()) == 3 })
	hinted := wideRecords(bitvec.UserID(n+1), 7000, r.Ring(), dead.Addr)
	if err := r.PublishAll(hinted); err != nil {
		t.Fatalf("publishing records a dead member owns: %v", err)
	}
	if !strings.Contains(r.Status(), "pending-hints=7000") {
		t.Fatalf("status does not show the 7000 queued hints:\n%s", r.Status())
	}
	dead.Restart(t)
	fleettest.WaitFor(t, 20*time.Second, func() bool { return len(r.LiveNodes()) == 4 })
	for _, p := range hinted {
		if s, ok := dead.Eng.Table().Get(p.ID, wide); !ok || s != p.S {
			t.Fatalf("the returned member is missing the hinted record of user %v", p.ID)
		}
	}
}
