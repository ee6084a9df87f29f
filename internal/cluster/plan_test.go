package cluster_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/dataset"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/fleettest"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/store"
	"sketchprivacy/internal/wire"
)

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
	nodes := fleettest.StartNodes(t, 3)
	fleettest.Proxied(t, nodes...)
	r := fleettest.StartRouter(t, nodes, 2, nil)
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
		for _, n := range nodes {
			n.Proxy.Reset()
		}
		if err := call.run(); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
		for i, n := range nodes {
			if got := n.Proxy.Requests()[wire.TypePlanQuery]; got != 1 {
				t.Fatalf("%s: node %d saw %d planQuery frames, want exactly 1 (one fan-out RTT)", call.name, i, got)
			}
			if got := n.Proxy.StrayFrames(); got != 0 {
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
	nodes := fleettest.StartNodes(t, 4)
	spare, proxied := nodes[3], nodes[:3]
	fleettest.Proxied(t, proxied...)
	// Hedging off for this test (a hedge fired while the frame is frozen
	// would add recovery frames): the frame-count accounting below is
	// about the stale-epoch retry alone.
	r := fleettest.StartRouter(t, proxied, 2, func(cfg *cluster.Config) {
		cfg.HedgeDelay = time.Hour
	})
	pubs, _, field := planWorkload(t, 200, 55)
	if err := r.PublishAll(pubs); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(t, pubs)
	for _, n := range proxied {
		n.Proxy.Reset()
	}

	// Gate: hold the first planQuery frame bound for node 0.
	held := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	proxied[0].Proxy.SetGate(func(msgType byte) {
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
	if err := r.Join(spare.Addr); err != nil {
		t.Fatal(err)
	}
	wantEpoch := r.Epoch()
	if wantEpoch < 2 {
		t.Fatalf("join did not bump the epoch: %d", wantEpoch)
	}
	// The frozen frame must only be released once node 0 has observed the
	// new epoch, so its stale-epoch check fires deterministically.
	fleettest.WaitFor(t, 5*time.Second, func() bool {
		return nodes[0].Srv.Epoch() >= wantEpoch
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
	for i, n := range proxied {
		if got := n.Proxy.Requests()[wire.TypePlanQuery]; got != 2 {
			t.Fatalf("node %d saw %d planQuery frames, want exactly 2 (frozen fan-out + one retry)", i, got)
		}
	}
}

// TestPlanPushDownDurableBitIdentical is the durable-store variant of the
// plan push-down golden test: nodes backed by WAL+segment stores answer
// the full estimator surface bit-identically to a memory reference.
func TestPlanPushDownDurableBitIdentical(t *testing.T) {
	nodes := make([]*fleettest.Node, 3)
	for i := range nodes {
		nodes[i] = fleettest.StartNode(t, &store.Options{Dir: t.TempDir(), Shards: 2, CompactInterval: -1})
	}
	r := fleettest.StartRouter(t, nodes, 2, nil)
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
	nodes := fleettest.StartNodes(t, 3)
	r := fleettest.StartRouter(t, nodes, 2, nil)
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
