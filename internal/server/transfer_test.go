package server

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
	"sketchprivacy/internal/wire"
)

// dialRaw opens a handshaken wire connection for opcode-level tests.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.ClientHandshake(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// roundTripRaw runs one request/response exchange.
func roundTripRaw(t *testing.T, conn net.Conn, msgType byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := wire.WriteFrame(conn, msgType, payload); err != nil {
		t.Fatal(err)
	}
	replyType, reply, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return replyType, reply
}

// TestSnapshotReadAndBatchPush drives the rebalance data plane at the node
// level: records a router pushes in a batch frame under its ring epoch
// become queryable and advance the node's epoch, a re-push is idempotent
// (nothing newly stored), the snapshot stream returns exactly the stored
// records, and a conflicting push is refused with the user named.
func TestSnapshotReadAndBatchPush(t *testing.T) {
	srv, addr, _, _ := startTestServer(t, 0.3, 10)
	conn := dialRaw(t, addr)

	records := []sketch.Published{
		{ID: 1, Subset: bitvec.MustSubset(0, 2), S: sketch.Sketch{Key: 7, Length: 10}},
		{ID: 2, Subset: bitvec.MustSubset(0, 2), S: sketch.Sketch{Key: 8, Length: 10}},
		{ID: 2, Subset: bitvec.MustSubset(1), S: sketch.Sketch{Key: 9, Length: 10}},
	}
	push := wire.EncodePublishBatch(5, records)
	replyType, reply := roundTripRaw(t, conn, wire.TypePublishBatch, push)
	if replyType != wire.TypeAck || len(reply) != 0 {
		t.Fatalf("batch push answered with type %d: %s", replyType, reply)
	}
	if got := srv.eng.Sketches(); got != 3 {
		t.Fatalf("push stored %d records, want 3", got)
	}
	if srv.Epoch() != 5 {
		t.Fatalf("push did not advance the node epoch: %d", srv.Epoch())
	}

	// Idempotent re-push: acknowledged, nothing newly stored.
	replyType, reply = roundTripRaw(t, conn, wire.TypePublishBatch, push)
	if replyType != wire.TypeAck {
		t.Fatalf("re-push answered with type %d: %s", replyType, reply)
	}
	if got := srv.eng.Sketches(); got != 3 {
		t.Fatalf("re-push left %d records, want 3", got)
	}

	// Snapshot stream returns exactly the stored records.
	var streamed []sketch.Published
	cursor := uint64(0)
	for {
		req := wire.EncodeSnapshotRead(wire.SnapshotRead{Cursor: cursor, Max: 2})
		replyType, reply = roundTripRaw(t, conn, wire.TypeSnapshotRead, req)
		if replyType != wire.TypeSnapshotBatch {
			t.Fatalf("snapshot read answered with type %d: %s", replyType, reply)
		}
		batch, err := wire.DecodeSnapshotBatch(reply)
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, batch.Records...)
		if batch.Done {
			break
		}
		cursor = batch.Next
	}
	if len(streamed) != len(records) {
		t.Fatalf("snapshot streamed %d records, want %d", len(streamed), len(records))
	}
	for _, want := range records {
		found := false
		for _, got := range streamed {
			if got.ID == want.ID && got.Subset.Key() == want.Subset.Key() && got.S == want.S {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("record %+v missing from snapshot stream", want)
		}
	}

	// A conflicting sketch for an existing (user, subset) is refused.
	conflict := records[0]
	conflict.S.Key ^= 1
	bad := wire.EncodePublishBatch(5, []sketch.Published{conflict})
	replyType, reply = roundTripRaw(t, conn, wire.TypePublishBatch, bad)
	if replyType != wire.TypeError || !strings.Contains(string(reply), fmt.Sprintf("user %v", conflict.ID)) {
		t.Fatalf("conflicting push answered type %d %q, want an error naming user %v", replyType, reply, conflict.ID)
	}
}

// totalPlan is the total-only plan a router counts records with.
func totalPlan() *query.Plan {
	p := query.NewPlan()
	p.AddTotalRecords()
	return p
}

// TestPartialQueryStaleEpoch pins the node-side guard on the one query
// opcode a node serves for a router: once the node has observed epoch E, a
// plan query whose filter was built for an older epoch is refused with the
// recognisable marker, while the current epoch keeps working.
func TestPartialQueryStaleEpoch(t *testing.T) {
	srv, addr, _, _ := startTestServer(t, 0.3, 10)
	conn := dialRaw(t, addr)

	self := addr
	mkQuery := func(epoch uint64) []byte {
		return wire.EncodePlanQuery(&wire.Filter{
			Epoch:  epoch,
			Nodes:  []string{self},
			VNodes: 8,
			Self:   self,
			Live:   []string{self},
		}, totalPlan())
	}
	// Epoch 4 accepted and observed.
	replyType, reply := roundTripRaw(t, conn, wire.TypePlanQuery, mkQuery(4))
	if replyType != wire.TypePlanResult {
		t.Fatalf("epoch-4 plan answered with type %d: %s", replyType, reply)
	}
	epoch, _, err := wire.DecodePlanResult(reply)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 {
		t.Fatalf("plan result echoes epoch %d, want 4", epoch)
	}
	if srv.Epoch() != 4 {
		t.Fatalf("node observed epoch %d, want 4", srv.Epoch())
	}
	// Epoch 3 now stale.
	replyType, reply = roundTripRaw(t, conn, wire.TypePlanQuery, mkQuery(3))
	if replyType != wire.TypeError || !wire.IsStaleEpoch(string(reply)) {
		t.Fatalf("stale plan answered with type %d: %s", replyType, reply)
	}
	// Epoch 0 (no epoch — single-node tooling) still accepted.
	replyType, _ = roundTripRaw(t, conn, wire.TypePlanQuery, mkQuery(0))
	if replyType != wire.TypePlanResult {
		t.Fatalf("epoch-less plan answered with type %d", replyType)
	}
	// Ping also exchanges the epoch.
	replyType, reply = roundTripRaw(t, conn, wire.TypePing, wire.EncodePingEpoch(9))
	if replyType != wire.TypePong {
		t.Fatalf("ping answered with type %d", replyType)
	}
	if srv.Epoch() != 9 {
		t.Fatalf("ping did not advance the epoch: %d", srv.Epoch())
	}
}

// TestBatchPushLandsAsOneBatch pins that a router's batch push lands
// through the engine's batch path: on an fsynced node a 512-record push (a
// rebalance stream's batch, a hint replay) commits in at most one window
// per shard — not one lone publish, fsync and log frame per record — a
// second identical push stores nothing and takes no window, and a
// conflicting one is refused with an error naming the user.
func TestBatchPushLandsAsOneBatch(t *testing.T) {
	const shards, n = 4, 512
	reg := obs.NewRegistry()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Shards: shards, Fsync: true, CompactInterval: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := prf.NewBiased(bytes.Repeat([]byte{0x11}, prf.MinKeyBytes), prf.MustProb(0.3))
	eng, err := engine.NewWithStore(h, sketch.MustParams(0.3, 10), st)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialRaw(t, addr)

	commits := func() float64 {
		var text strings.Builder
		if err := reg.RenderText(&text); err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseText(text.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			if f.Name == "store_commits_total" {
				return f.Samples[0].Value
			}
		}
		t.Fatal("store_commits_total is not exported")
		return 0
	}
	push := func(records []sketch.Published) (byte, []byte) {
		return roundTripRaw(t, conn, wire.TypePublishBatch, wire.EncodePublishBatch(1, records))
	}
	// stored pushes records and reports how many the node newly holds.
	stored := func(records []sketch.Published) int {
		t.Helper()
		before := eng.Sketches()
		if replyType, reply := push(records); replyType != wire.TypeAck {
			t.Fatalf("batch push answered with type %d: %s", replyType, reply)
		}
		return eng.Sketches() - before
	}

	subsets := []bitvec.Subset{bitvec.MustSubset(0, 2), bitvec.MustSubset(1)}
	records := make([]sketch.Published, n)
	for i := range records {
		records[i] = sketch.Published{ID: bitvec.UserID(i/2 + 1), Subset: subsets[i%2], S: sketch.Sketch{Key: uint64(i % 1024), Length: 10}}
	}
	before := commits()
	if got := stored(records); got != n {
		t.Fatalf("push stored %d records, want %d", got, n)
	}
	if windows := commits() - before; windows < 1 || windows > shards {
		t.Fatalf("a %d-record push took %v commit windows, want at most one per shard (%d)", n, windows, shards)
	}
	before = commits()
	if got := stored(records); got != 0 || commits() != before {
		t.Fatalf("identical re-push stored %d records in %v commit windows, want 0 in 0", got, commits()-before)
	}

	conflict := records[200]
	conflict.S.Key ^= 1
	fresh := sketch.Published{ID: 9001, Subset: subsets[0], S: sketch.Sketch{Key: 5, Length: 10}}
	replyType, reply := push([]sketch.Published{fresh, conflict})
	if replyType != wire.TypeError || !strings.Contains(string(reply), fmt.Sprintf("user %v", conflict.ID)) {
		t.Fatalf("conflicting push answered type %d %q, want an error naming user %v", replyType, reply, conflict.ID)
	}
}

// TestFilterMemoCompilesOncePerIdentity: a node compiles an ownership
// filter once per predicate — another epoch or budget is the same compiled
// filter, another addressee or live set is another — keeps only the last
// few, and never remembers a filter that failed to compile.
func TestFilterMemoCompilesOncePerIdentity(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	var m filterMemo
	first, err := m.compile(&wire.Filter{Epoch: 1, Budget: 50, Nodes: nodes, VNodes: 8, Self: "a:1", Live: nodes})
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.compile(&wire.Filter{Epoch: 2, Nodes: nodes, VNodes: 8, Self: "a:1", Live: []string{"c:1", "b:1", "a:1"}})
	if err != nil || again != first {
		t.Fatalf("the same predicate under another epoch, budget and live order was compiled again (err %v)", err)
	}
	recovery, err := m.compile(&wire.Filter{Nodes: nodes, VNodes: 8, Self: "a:1", Live: nodes, Failed: nodes[2:]})
	if err != nil || recovery == first || recovery.Key == first.Key {
		t.Fatalf("a recovery slice shares the live filter's identity (err %v)", err)
	}
	if _, err := m.compile(&wire.Filter{Nodes: nodes, VNodes: 8, Self: "x:1", Live: nodes}); err == nil {
		t.Fatal("a filter addressed to a non-member compiled")
	}
	if keep, err := m.compile(nil); keep != nil || err != nil {
		t.Fatalf("no filter compiled to %v, %v", keep, err)
	}
	// Enough other identities to push the first out, then it compiles anew.
	for i := range m.recent {
		if _, err := m.compile(&wire.Filter{Nodes: nodes, VNodes: uint32(16 + i), Self: "a:1", Live: nodes}); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := m.compile(&wire.Filter{Nodes: nodes, VNodes: 8, Self: "a:1", Live: nodes})
	if err != nil || evicted == first || evicted.Key != first.Key {
		t.Fatalf("the memo is unbounded, or a recompiled filter changed identity (err %v)", err)
	}
	// Connections compile concurrently, more identities than slots: every
	// caller gets the filter of the identity it asked for.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f := &wire.Filter{Nodes: nodes, VNodes: uint32(1 + (g+i)%12), Self: "a:1", Live: nodes}
				if keep, err := m.compile(f); err != nil || keep.Key != cluster.FilterKey(f) {
					t.Errorf("concurrent compile returned another identity's filter (err %v)", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
