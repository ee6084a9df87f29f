package cluster_test

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/store"
	"sketchprivacy/internal/wire"
)

// frameProxy forwards TCP connections to a backend node, counting every
// client→backend frame by opcode and optionally gating frames through a
// hook.  It is how the plan push-down tests prove RTT accounting: the
// router only ever talks to the proxy address, so the per-opcode counts
// are exactly the requests that crossed the wire.
type frameProxy struct {
	backend string
	addr    string
	ln      net.Listener

	mu     sync.Mutex
	counts map[byte]int
	gate   func(msgType byte)
	conns  map[net.Conn]struct{}
}

// startFrameProxy listens on a loopback port and forwards to backend.
func startFrameProxy(t *testing.T, backend string) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{
		backend: backend,
		addr:    ln.Addr().String(),
		ln:      ln,
		counts:  make(map[byte]int),
		conns:   make(map[net.Conn]struct{}),
	}
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *frameProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *frameProxy) track(c net.Conn)   { p.mu.Lock(); p.conns[c] = struct{}{}; p.mu.Unlock() }
func (p *frameProxy) untrack(c net.Conn) { p.mu.Lock(); delete(p.conns, c); p.mu.Unlock() }

// count returns how many client→backend frames of msgType crossed so far.
func (p *frameProxy) count(msgType byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[msgType]
}

// resetCounts zeroes the per-opcode counters.
func (p *frameProxy) resetCounts() {
	p.mu.Lock()
	p.counts = make(map[byte]int)
	p.mu.Unlock()
}

// strayFrames counts the router→node frames seen since the last reset that
// are neither plan queries nor connection control (hello, ping): every
// query frame a router sends must be a TypePlanQuery.
func (p *frameProxy) strayFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for msgType, c := range p.counts {
		switch msgType {
		case wire.TypePlanQuery, wire.TypeHello, wire.TypePing:
		default:
			n += c
		}
	}
	return n
}

// setGate installs a hook run (and possibly blocked) before each
// client→backend frame is forwarded.
func (p *frameProxy) setGate(gate func(msgType byte)) {
	p.mu.Lock()
	p.gate = gate
	p.mu.Unlock()
}

func (p *frameProxy) accept() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		backend, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.track(client)
		p.track(backend)
		go func() {
			defer p.untrack(client)
			defer p.untrack(backend)
			defer client.Close()
			defer backend.Close()
			for {
				msgType, payload, err := wire.ReadFrame(client)
				if err != nil {
					return
				}
				p.mu.Lock()
				p.counts[msgType]++
				gate := p.gate
				p.mu.Unlock()
				if gate != nil {
					gate(msgType)
				}
				if err := wire.WriteFrame(backend, msgType, payload); err != nil {
					return
				}
			}
		}()
		go func() {
			io.Copy(client, backend) //nolint:errcheck // closing either side ends the stream
			client.Close()
		}()
	}
}

// planWorkload sketches a population over the conjunctive subset, the
// single-bit subsets and the prefix subsets of a 4-bit field — everything
// the interval, combination and tree estimators need, deduplicated (the
// width-1 prefix is the first bit subset; the full prefix is the
// conjunctive subset).
func planWorkload(t *testing.T, users int, seed uint64) ([]sketch.Published, bitvec.Subset, bitvec.IntField) {
	t.Helper()
	pop := dataset.UniformBinary(seed, users, 8, 0.4)
	field := bitvec.MustIntField(0, 4)
	subsets := []bitvec.Subset{bitvec.Range(0, 4)}
	subsets = append(subsets, query.FieldBitSubsets(field)...)
	subsets = append(subsets, query.FieldPrefixSubsets(field)...)
	seen := make(map[string]bool)
	dedup := subsets[:0]
	for _, b := range subsets {
		if seen[b.Key()] {
			continue
		}
		seen[b.Key()] = true
		dedup = append(dedup, b)
	}
	sk, err := sketch.NewSketcher(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed + 1)
	var pubs []sketch.Published
	for _, profile := range pop.Profiles {
		ps, err := sk.SketchAll(rng, profile, dedup)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, ps...)
	}
	return pubs, bitvec.Range(0, 4), field
}

// TestPlanPushDownSingleFanoutRTT is the RTT-accounting acceptance test: a
// FieldLessThan interval query, an ExactlyOfK combination and a decision
// tree each cost exactly one planQuery frame per live node — one fan-out
// round trip — and zero per-partial frames, while staying bit-identical to
// a single reference engine.
func TestPlanPushDownSingleFanoutRTT(t *testing.T) {
	nodes := startNodes(t, 3)
	proxies := make([]*frameProxy, len(nodes))
	proxied := make([]*testNode, len(nodes))
	for i, n := range nodes {
		proxies[i] = startFrameProxy(t, n.addr)
		proxied[i] = &testNode{addr: proxies[i].addr, eng: n.eng, srv: n.srv}
	}
	r := startRouter(t, proxied, 2)
	pubs, _, field := planWorkload(t, 300, 33)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)

	subs := []query.SubQuery{
		{Subset: field.BitSubset(1), Value: bitvec.MustFromString("1")},
		{Subset: field.BitSubset(2), Value: bitvec.MustFromString("1")},
		{Subset: field.BitSubset(3), Value: bitvec.MustFromString("1")},
	}
	tree := query.Node(0, query.Leaf(false), query.Node(1, query.Leaf(true), query.Leaf(false)))

	calls := []struct {
		name string
		run  func() error
	}{
		{"FieldLessThan", func() error {
			want, err := ref.Estimator().FieldLessThan(ref.Source(nil), field, 11)
			if err != nil {
				return err
			}
			got, err := r.Estimator().FieldLessThan(r, field, 11)
			if err != nil {
				return err
			}
			if want != got {
				return fmt.Errorf("FieldLessThan differs: router %+v, reference %+v", got, want)
			}
			return nil
		}},
		{"FieldAtMost", func() error {
			want, err := ref.FieldAtMost(field, 9)
			if err != nil {
				return err
			}
			got, err := r.Estimator().FieldAtMost(r, field, 9)
			if err != nil {
				return err
			}
			if want != got {
				return fmt.Errorf("FieldAtMost differs: router %+v, reference %+v", got, want)
			}
			return nil
		}},
		{"ExactlyOfK", func() error {
			want, err := ref.ExactlyOfK(subs, 2)
			if err != nil {
				return err
			}
			got, err := r.Estimator().ExactlyOfK(r, subs, 2)
			if err != nil {
				return err
			}
			if !sameEstimate(want, got) {
				return fmt.Errorf("ExactlyOfK differs: router %+v, reference %+v", got, want)
			}
			return nil
		}},
		{"DecisionTree", func() error {
			want, err := ref.DecisionTree(tree)
			if err != nil {
				return err
			}
			got, err := r.Estimator().DecisionTreeFraction(r, tree)
			if err != nil {
				return err
			}
			if want != got {
				return fmt.Errorf("DecisionTree differs: router %+v, reference %+v", got, want)
			}
			return nil
		}},
	}
	for _, call := range calls {
		for _, p := range proxies {
			p.resetCounts()
		}
		if err := call.run(); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
		for i, p := range proxies {
			if got := p.count(wire.TypePlanQuery); got != 1 {
				t.Fatalf("%s: node %d saw %d planQuery frames, want exactly 1 (one fan-out RTT)", call.name, i, got)
			}
			if got := p.strayFrames(); got != 0 {
				t.Fatalf("%s: node %d saw %d frames that are not plan queries", call.name, i, got)
			}
		}
	}
}

// TestPlanPushDownStaleEpochRetry freezes a plan fan-out mid-flight, cuts
// the ring over (Join) so the frozen frame's epoch goes stale, and
// releases it: the target node must refuse the superseded plan, and the
// router must absorb the refusal with exactly one full retry fan-out at
// the new epoch — two planQuery frames per proxied node in total — while
// the answer stays bit-identical to the reference.
func TestPlanPushDownStaleEpochRetry(t *testing.T) {
	nodes := startNodes(t, 4)
	spare := nodes[3]
	proxies := make([]*frameProxy, 3)
	proxied := make([]*testNode, 3)
	for i, n := range nodes[:3] {
		proxies[i] = startFrameProxy(t, n.addr)
		proxied[i] = &testNode{addr: proxies[i].addr, eng: n.eng, srv: n.srv}
	}
	// Hedging off for this test (a hedge fired while the frame is frozen
	// would add recovery frames): the frame-count accounting below is
	// about the stale-epoch retry alone.
	r := startRouterCfg(t, proxied, 2, func(cfg *cluster.Config) {
		cfg.HedgeDelay = time.Hour
	})
	pubs, _, field := planWorkload(t, 200, 55)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	for _, p := range proxies {
		p.resetCounts()
	}

	// Gate: hold the first planQuery frame bound for node 0.
	held := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	proxies[0].setGate(func(msgType byte) {
		if msgType != wire.TypePlanQuery {
			return
		}
		first := false
		once.Do(func() { first = true })
		if first {
			close(held)
			<-release
		}
	})

	type answer struct {
		est query.NumericEstimate
		err error
	}
	done := make(chan answer, 1)
	go func() {
		est, err := r.Estimator().FieldAtMost(r, field, 9)
		done <- answer{est, err}
	}()

	<-held
	// Cut the ring over while the frame is frozen: join the spare node.
	if err := r.Join(spare.addr); err != nil {
		t.Fatal(err)
	}
	wantEpoch := r.Epoch()
	if wantEpoch < 2 {
		t.Fatalf("join did not bump the epoch: %d", wantEpoch)
	}
	// The frozen frame must only be released once node 0 has observed the
	// new epoch, so its stale-epoch check fires deterministically.
	waitFor(t, 5*time.Second, func() bool {
		return nodes[0].srv.Epoch() >= wantEpoch
	})
	close(release)

	res := <-done
	if res.err != nil {
		t.Fatalf("query across the cutover failed: %v", res.err)
	}
	want, err := ref.FieldAtMost(field, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.est != want {
		t.Fatalf("post-retry answer %+v differs from reference %+v", res.est, want)
	}
	for i, p := range proxies {
		if got := p.count(wire.TypePlanQuery); got != 2 {
			t.Fatalf("node %d saw %d planQuery frames, want exactly 2 (frozen fan-out + one retry)", i, got)
		}
	}
}

// TestPlanPushDownDurableBitIdentical is the durable-store variant of the
// plan push-down golden test: nodes backed by WAL+segment stores answer
// the full estimator surface bit-identically to a memory reference.
func TestPlanPushDownDurableBitIdentical(t *testing.T) {
	base := t.TempDir()
	openStore := func(name string) *store.Durable {
		st, err := store.Open(store.Options{
			Dir:             filepath.Join(base, name),
			Shards:          2,
			CompactInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	nodes := []*testNode{
		startNodeAt(t, "", openStore("n1")),
		startNodeAt(t, "", openStore("n2")),
		startNodeAt(t, "", openStore("n3")),
	}
	r := startRouter(t, nodes, 2)
	pubs, subset, field := planWorkload(t, 300, 77)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	assertClusterMatchesReference(t, r, ref, subset, field)

	wantLess, err := ref.Estimator().FieldLessThan(ref.Source(nil), field, 13)
	if err != nil {
		t.Fatal(err)
	}
	gotLess, err := r.Estimator().FieldLessThan(r, field, 13)
	if err != nil {
		t.Fatal(err)
	}
	if wantLess != gotLess {
		t.Fatalf("durable FieldLessThan differs: router %+v, reference %+v", gotLess, wantLess)
	}
	tree := query.Node(2, query.Leaf(true), query.Node(0, query.Leaf(false), query.Leaf(true)))
	wantTree, err := ref.DecisionTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	gotTree, err := r.Estimator().DecisionTreeFraction(r, tree)
	if err != nil {
		t.Fatal(err)
	}
	if wantTree != gotTree {
		t.Fatalf("durable DecisionTree differs: router %+v, reference %+v", gotTree, wantTree)
	}
}

// TestPublishAllPipelinedKeepsFirstError: the pipelined batch publish
// reports the earliest failing record's error by batch position, not by
// completion order, and a clean batch through the pipeline lands exactly
// like the sequential path did.
func TestPublishAllPipelinedKeepsFirstError(t *testing.T) {
	nodes := startNodes(t, 3)
	r := startRouter(t, nodes, 2)
	subset := bitvec.Range(0, 4)
	rec := func(id uint64, key uint64) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: subset, S: sketch.Sketch{Key: key % 1024, Length: testLength}}
	}
	// Pre-publish two users; conflicting sketches for them must fail.
	if err := r.Publish(rec(50001, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(rec(50002, 2)); err != nil {
		t.Fatal(err)
	}
	batch := make([]sketch.Published, 0, 64)
	for id := uint64(1); len(batch) < 20; id++ {
		batch = append(batch, rec(id, id))
	}
	batch = append(batch, rec(50001, 999)) // first conflict by position
	for id := uint64(100); len(batch) < 50; id++ {
		batch = append(batch, rec(id, id))
	}
	batch = append(batch, rec(50002, 999)) // second conflict
	err := r.PublishAll(batch)
	if err == nil {
		t.Fatal("conflicting batch publish succeeded")
	}
	if !strings.Contains(err.Error(), "50001") {
		t.Fatalf("expected the first conflicting record's error (user 50001), got: %v", err)
	}

	// A clean pipelined batch is fully queryable afterwards.
	clean := make([]sketch.Published, 0, 200)
	for id := uint64(1000); len(clean) < 200; id++ {
		clean = append(clean, rec(id, id))
	}
	if err := r.PublishAll(clean); err != nil {
		t.Fatal(err)
	}
	n, err := subsetRecords(r, subset)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New(testSource(), sketch.MustParams(testP, testLength))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(append([]sketch.Published{rec(50001, 1), rec(50002, 2)}, batch...), clean...) {
		if err := ref.Ingest(p); err != nil && !strings.Contains(err.Error(), "already published") {
			t.Fatal(err)
		}
	}
	// The cluster holds at least the pre-published pair, every batch
	// record before the first conflict and the whole clean batch; records
	// after the conflict may or may not have launched.  Querying must
	// count each stored user exactly once despite RF=2.
	if n < 2+20+200 {
		t.Fatalf("cluster reports %d records for the subset, want at least %d", n, 2+20+200)
	}
	if n > uint64(len(batch))+2+200 {
		t.Fatalf("cluster reports %d records — replicated copies leaked into the count", n)
	}
}

// subsetRecords counts one subset's records across a source with a
// one-entry plan.
func subsetRecords(src query.PartialSource, b bitvec.Subset) (uint64, error) {
	p := query.NewPlan()
	ref := p.AddSubsetRecords(b)
	res, err := src.Execute(p)
	if err != nil {
		return 0, err
	}
	return res.Count(ref), nil
}
