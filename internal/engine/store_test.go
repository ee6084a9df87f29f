package engine

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/store"
)

// TestEngineDurableStoreRoundTrip proves the durability contract at the
// engine level: everything ingested through an engine with a durable
// store attached is answered identically by a fresh engine rehydrated
// from the same directory.
func TestEngineDurableStoreRoundTrip(t *testing.T) {
	p := 0.3
	params := sketch.MustParams(p, 10)
	h := testSource(p)
	dir := t.TempDir()

	st, err := store.Open(store.Options{Dir: dir, Shards: 4, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewWithStore(h, params, st)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.NewSketcher(h, params)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 4)
	v := bitvec.MustFromString("1010")
	rng := stats.NewRNG(99)
	const n = 800
	for i := 1; i <= n; i++ {
		profile := bitvec.Profile{ID: bitvec.UserID(i), Data: bitvec.FromUint(uint64(i), 4)}
		s, err := sk.Sketch(rng, profile, subset)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest(sketch.Published{ID: profile.ID, Subset: subset, S: s}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(store.Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2, err := NewWithStore(h, params, st2)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Sketches() != n {
		t.Fatalf("rehydrated engine has %d sketches, want %d", eng2.Sketches(), n)
	}
	got, err := eng2.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("rehydrated estimate %+v differs from pre-restart %+v", got, want)
	}

	// Duplicate publishes must still be rejected after rehydration.
	dup := sketch.Published{ID: 1, Subset: subset, S: sketch.Sketch{Key: 1, Length: 10}}
	if err := eng2.Ingest(dup); err == nil {
		t.Fatal("duplicate (user, subset) accepted after rehydration")
	}
}

// TestEngineMemStoreMatchesDurable runs the same ingests through the
// in-memory store and checks the rehydration path behaves identically.
func TestEngineMemStoreMatchesDurable(t *testing.T) {
	p := 0.3
	params := sketch.MustParams(p, 10)
	h := testSource(p)
	mem := store.NewMem()
	eng, err := NewWithStore(h, params, mem)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	for i := 1; i <= 50; i++ {
		pub := sketch.Published{ID: bitvec.UserID(i), Subset: subset, S: sketch.Sketch{Key: uint64(i % 512), Length: 10}}
		if err := eng.Ingest(pub); err != nil {
			t.Fatal(err)
		}
	}
	eng2, err := NewWithStore(h, params, mem)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Sketches() != eng.Sketches() {
		t.Fatalf("mem rehydration: %d sketches, want %d", eng2.Sketches(), eng.Sketches())
	}
}

// failingStore fails every record after a set number of successes.
type failingStore struct {
	store.Store
	remaining int
}

var errDiskFull = errors.New("synthetic disk full")

func (f *failingStore) appendRecord(p sketch.Published) error {
	if f.remaining <= 0 {
		return errDiskFull
	}
	f.remaining--
	return appendOne(f.Store, p)
}

func (f *failingStore) AppendBatch(ps []sketch.Published) ([]int, error) {
	return appendEach(f.appendRecord, ps)
}

// TestEngineIngestFailedAppendLandsNothing: a record whose durable append
// fails is not queryable (it would silently vanish on restart), and the
// user can retry once the store recovers.
func TestEngineIngestFailedAppendLandsNothing(t *testing.T) {
	p := 0.3
	params := sketch.MustParams(p, 10)
	fs := &failingStore{Store: store.NewMem(), remaining: 2}
	eng, err := NewWithStore(testSource(p), params, fs)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	pub := func(id uint64) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: subset, S: sketch.Sketch{Key: id, Length: 10}}
	}
	if err := eng.Ingest(pub(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(pub(2)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(pub(3)); !errors.Is(err, errDiskFull) {
		t.Fatalf("Ingest with failing store = %v, want errDiskFull", err)
	}
	if eng.Sketches() != 2 {
		t.Fatalf("failed ingest left %d sketches queryable, want 2", eng.Sketches())
	}
	if _, ok := eng.Table().Get(3, subset); ok {
		t.Fatal("the record whose append failed is in the table")
	}
	// Store recovers; the same user retries successfully.
	fs.remaining = 10
	if err := eng.Ingest(pub(3)); err != nil {
		t.Fatalf("retry after store recovery: %v", err)
	}
	if eng.Sketches() != 3 {
		t.Fatalf("retry not stored: %d sketches", eng.Sketches())
	}
	// A batch meets the failing store too: with room for one more append,
	// exactly the first of two new records lands.
	fs.remaining = 1
	err = eng.IngestBatch([]sketch.Published{pub(4), pub(5)})
	if !errors.Is(err, errDiskFull) || eng.Sketches() != 4 {
		t.Fatalf("batch over a failing store: %v, %d sketches; want errDiskFull, 4", err, eng.Sketches())
	}
	if _, ok := eng.Table().Get(5, subset); ok {
		t.Fatal("the batch's record whose append failed is in the table")
	}
}

// gateStore parks its first AppendBatch until released, then fails it;
// later appends pass through.  Calls for one user are serialized by the
// engine's stripe lock, so the fields need no extra synchronization.
type gateStore struct {
	store.Store
	entered chan struct{}
	release chan struct{}
	failed  bool
}

func (g *gateStore) AppendBatch(ps []sketch.Published) ([]int, error) {
	if !g.failed {
		g.failed = true
		close(g.entered)
		<-g.release
		failed := make([]int, len(ps))
		for i := range failed {
			failed[i] = i
		}
		return failed, errDiskFull
	}
	return g.Store.AppendBatch(ps)
}

// TestEngineConcurrentDuplicateDuringFailedAppend: a publish retried
// while the first attempt's durable append is in flight must wait for
// the outcome, not be NACKed as a duplicate of a record the failed append
// never made durable — that would leave the sketch in neither table nor
// store with both callers told it failed for different reasons.
func TestEngineConcurrentDuplicateDuringFailedAppend(t *testing.T) {
	p := 0.3
	params := sketch.MustParams(p, 10)
	gs := &gateStore{Store: store.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	eng, err := NewWithStore(testSource(p), params, gs)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	pub := sketch.Published{ID: 7, Subset: subset, S: sketch.Sketch{Key: 7, Length: 10}}
	firstErr := make(chan error, 1)
	go func() { firstErr <- eng.Ingest(pub) }()
	<-gs.entered
	retryErr := make(chan error, 1)
	go func() { retryErr <- eng.Ingest(pub) }()
	close(gs.release)
	if err := <-firstErr; !errors.Is(err, errDiskFull) {
		t.Fatalf("first ingest = %v, want errDiskFull", err)
	}
	if err := <-retryErr; err != nil {
		t.Fatalf("concurrent retry = %v, want success after the failed append", err)
	}
	if _, ok := eng.Table().Get(7, subset); !ok {
		t.Fatal("record missing from the table after the successful retry")
	}
}

// TestEngineLoneIngestInvisibleUntilDurable: a lone publish is a batch of
// one, so nothing of it is queryable while its durable append is in flight
// — not to Get, CountForSubset or a plan that counts the subset — and an
// append that fails leaves nothing behind: the record is absent, and the
// plan cache, warmed during the append, answers as an uncached pass does.
// A retry lands it.
func TestEngineLoneIngestInvisibleUntilDurable(t *testing.T) {
	const p = 0.3
	gs := &gateStore{Store: store.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	eng, err := NewWithStore(testSource(p), sketch.MustParams(p, 10), gs)
	if err != nil {
		t.Fatal(err)
	}
	gs.failed = true // the seed passes the gate
	subset := bitvec.Range(0, 2)
	for id := uint64(1); id <= 10; id++ {
		if err := eng.Ingest(batchPub(id, subset)); err != nil {
			t.Fatal(err)
		}
	}
	plan := query.NewPlan()
	if _, err := eng.Estimator().PlanFraction(plan, subset, bitvec.MustFromString("01")); err != nil {
		t.Fatal(err)
	}
	count := plan.AddSubsetRecords(subset)
	absent := func(when string) {
		t.Helper()
		if _, ok := eng.Table().Get(7_000, subset); ok {
			t.Fatalf("%s: Get finds the record", when)
		}
		if n := eng.Table().CountForSubset(subset); n != 10 {
			t.Fatalf("%s: CountForSubset = %d, want the 10 durable records", when, n)
		}
		res, err := eng.ExecutePlan(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Count(count); n != 10 || res.Fractions[0].Records != 10 {
			t.Fatalf("%s: a plan counts %d records and scans %d, want 10", when, n, res.Fractions[0].Records)
		}
		fresh, err := eng.Estimator().ExecutePlanOver(eng.Table(), plan, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, fresh) {
			t.Fatalf("%s: the cached plan answers %+v, an uncached pass %+v", when, res, fresh)
		}
	}

	gs.failed = false
	lone := batchPub(7_000, subset)
	ingested := make(chan error, 1)
	go func() { ingested <- eng.Ingest(lone) }()
	<-gs.entered
	absent("while its append is parked")
	close(gs.release)
	if err := <-ingested; !errors.Is(err, errDiskFull) {
		t.Fatalf("Ingest over a failing append = %v, want errDiskFull", err)
	}
	absent("after its append failed")

	if err := eng.Ingest(lone); err != nil {
		t.Fatalf("retry = %v", err)
	}
	res, err := eng.ExecutePlan(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := eng.Table().Get(lone.ID, subset); !ok || got != lone.S || res.Count(count) != 11 {
		t.Fatalf("after the retry: Get = (%v, %v), the plan counts %d; want the record and 11", got, ok, res.Count(count))
	}
}

// TestEngineConcurrentDurableIngestAndQuery is the -race test of the
// durable path: parallel Ingest into a sharded on-disk store while
// analysts run Algorithm 2 queries, then a rehydration check that every
// acknowledged record survived.
func TestEngineConcurrentDurableIngestAndQuery(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	p := 0.3
	params := sketch.MustParams(p, 10)
	h := testSource(p)
	dir := t.TempDir()
	st, err := store.Open(store.Options{
		Dir:    dir,
		Shards: 4,
		// Tiny threshold + fast compaction so rolls and merges race the
		// ingest and query traffic inside the test window.
		FlushThreshold:   2048,
		CompactThreshold: 2,
		CompactInterval:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewWithStore(h, params, st)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 4)
	v := bitvec.MustFromString("1100")

	// Seed so queries never see an empty subset.
	for i := 1; i <= 100; i++ {
		pub := sketch.Published{ID: bitvec.UserID(i), Subset: subset, S: sketch.Sketch{Key: uint64(i), Length: 10}}
		if err := eng.Ingest(pub); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers    = 4
		perWriter  = 250
		readers    = 4
		queriesPer = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 1000 + w*perWriter
			for i := 0; i < perWriter; i++ {
				id := bitvec.UserID(base + i)
				pub := sketch.Published{ID: id, Subset: subset, S: sketch.Sketch{Key: uint64(id % 1024), Length: 10}}
				if err := eng.Ingest(pub); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPer; i++ {
				if _, err := eng.Conjunction(subset, v); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, store.ErrClosed) {
			t.Fatal(err)
		}
	}

	total := 100 + writers*perWriter
	if eng.Sketches() != total {
		t.Fatalf("engine has %d sketches, want %d", eng.Sketches(), total)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered := 0
	if err := st2.Iterate(func(sketch.Published) error { recovered++; return nil }); err != nil {
		t.Fatal(err)
	}
	if recovered != total {
		t.Fatalf("durable store recovered %d records, want %d", recovered, total)
	}
}

// mixedLengthStore builds through store.AppendBatch the one-shard data
// directory a node restarted at other lengths leaves, holding keys of ℓ = 9,
// near and far: a subset of 9-bit keys, overwritten; one with some users at
// 9 and near bits and some at near bits alone; one of 9-bit keys that the
// log gives near-bit ones; and {0}, 40 users' far-bit keys alone under
// hashed ids.  Two batches are rolled and compacted into one segment, and a
// third is left in the log.  It returns the directory and how many (user,
// subset) pairs it holds at ℓ = 9 and at the other lengths.
func mixedLengthStore(t *testing.T, near, far int) (dir string, nine, others int) {
	t.Helper()
	tenant := uint64(9) << 40
	s9, both, logged, sFar := bitvec.MustSubset(1, 4, 7), bitvec.MustSubset(3, 5), bitvec.MustSubset(2, 9), bitvec.MustSubset(0)
	pub := func(id uint64, b bitvec.Subset, key uint64, length int) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: key % (1 << uint(length)), Length: length}}
	}
	var first, second, tail []sketch.Published
	for i := uint64(0); i < 300; i++ {
		first = append(first, pub(tenant|(1+3*i/2), s9, i*37, 9))
	}
	for i := uint64(0); i < 120; i++ {
		first = append(first, pub(tenant|(2+2*i), both, i*7919, 9))
		if i%4 == 0 {
			first = append(first, pub(tenant|(2+2*i), both, i*7919, near))
		}
	}
	for i := uint64(0); i < 100; i++ {
		first = append(first, pub(tenant|(1+3*i), logged, i*101+3, 9))
	}
	for i := uint64(0); i < 40; i++ {
		first = append(first, pub(i*0x9E3779B97F4A7C15|1, sFar, i*40503, far))
	}
	for i := uint64(0); i < 150; i++ {
		second = append(second, pub(tenant|(1+3*i/2), s9, i*53+1, 9))
	}
	for i := uint64(0); i < 40; i++ {
		second = append(second, pub(tenant|(300+2*i), both, i, near))
	}
	for i := uint64(0); i < 40; i++ {
		id := tenant | (600 - 4*i)
		tail = append(tail, pub(id, s9, id+i, 9))
		if i%2 == 0 {
			tail = append(tail, pub(id, logged, id*i, near))
		}
		if i%5 == 0 {
			tail = append(tail, pub(id, both, i+1, 9+(near-9)*int(i%10/5)))
		}
	}
	dir = t.TempDir()
	write := func(flushThreshold int64, groups ...[]sketch.Published) *store.Durable {
		t.Helper()
		st, err := store.Open(store.Options{Dir: dir, Shards: 1, FlushThreshold: flushThreshold, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if _, err := st.AppendBatch(g); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	st := write(1, first, second) // each batch rolled
	if err := st.CompactNow(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = write(1<<30, tail)
	if sh := st.Stats().Shards[0]; sh.Segments != 1 || sh.WALRecords != uint64(len(tail)) {
		t.Fatalf("the store holds %d segments and %d log records, want one and %d", sh.Segments, sh.WALRecords, len(tail))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	type record struct {
		id     bitvec.UserID
		subset string
		length int
	}
	held := make(map[record]bool)
	for _, p := range slices.Concat(first, second, tail) {
		if r := (record{p.ID, p.Subset.Key(), p.S.Length}); !held[r] {
			held[r] = true
			if p.S.Length == 9 {
				nine++
			} else {
				others++
			}
		}
	}
	return dir, nine, others
}

// TestEngineServesItsLengthOverOlderStores: an engine at ℓ = 9 over a
// store that also holds sketches of other lengths (mixedLengthStore) — in a
// subset of their own, beside 9-bit ones in one subset, in the segment and
// in the log — loads exactly the stored 9-bit records and no other, streams
// exactly those to a rebalance, and counts the records it skipped in
// SetAsideRecords.  The cases carry the lengths of the stores older
// binaries left: v4's at ℓ = 9, 17 and 30, v5's at ℓ = 9 and 20.
func TestEngineServesItsLengthOverOlderStores(t *testing.T) {
	for _, c := range []struct {
		name      string
		near, far int
	}{
		{"dir-parent-v4", 17, 30},
		{"dir-parent-v5", 20, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, served, aside := mixedLengthStore(t, c.near, c.far)
			st, err := store.Open(store.Options{Dir: dir, CompactInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			byLength := make(map[int]int)
			if err := st.IterateRuns(func(r sketch.Run) error { byLength[int(r.Keys.Shape())] += r.Len(); return nil }); err != nil {
				t.Fatal(err)
			}
			eng, err := NewWithStore(testSource(0.3), sketch.MustParams(0.3, 9), st)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Sketches() != served || byLength[9] != served {
				t.Fatalf("the engine holds %d records, the store %d of ℓ = 9; want %d", eng.Sketches(), byLength[9], served)
			}
			other := 0
			for length, n := range byLength {
				if length != 9 {
					other += n
				}
			}
			if got := eng.SetAsideRecords(); got != uint64(aside) || other != aside {
				t.Fatalf("SetAsideRecords = %d (the store's records by length %v); want %d", got, byLength, aside)
			}
			var streamed []sketch.Published
			for cursor, done := uint64(0), false; !done; {
				var batch []sketch.Published
				if batch, cursor, done, err = eng.SnapshotBatch(cursor, 50); err != nil {
					t.Fatal(err)
				}
				streamed = append(streamed, batch...)
			}
			type pair struct {
				id     bitvec.UserID
				subset string
			}
			// The stream may pass an older copy of a record on its way to
			// the newest, as it always may.
			seen := make(map[pair]bool)
			for _, p := range streamed {
				if _, ok := eng.Table().Get(p.ID, p.Subset); p.S.Length != 9 || !ok {
					t.Fatalf("the rebalance stream carries %+v, which the engine does not serve", p)
				}
				seen[pair{p.ID, p.Subset.Key()}] = true
			}
			if len(seen) != served {
				t.Fatalf("the rebalance stream carries %d of the %d records the engine serves", len(seen), served)
			}
		})
	}
}

// TestEngineKeepsItsLengthBesideAnother: over a store whose subset {0}
// holds 40 records of ℓ = 20 alone (mixedLengthStore), an engine at ℓ = 9
// skips them and admits 9-bit publishes into {0} — those users'
// re-publishes among them, which OPERATIONS.md asks of an operator.  The
// acknowledged records stay served across a roll, a compaction and a
// reopen: the store keeps the subset's two lengths as runs of their own,
// and the next engine loads the 9-bit one and skips the same 20-bit one.
func TestEngineKeepsItsLengthBesideAnother(t *testing.T) {
	dir, _, twenty := mixedLengthStore(t, 20, 20)
	open := func() (*store.Durable, *Engine) {
		t.Helper()
		st, err := store.Open(store.Options{Dir: dir, FlushThreshold: 1, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewWithStore(testSource(0.3), sketch.MustParams(0.3, 9), st)
		if err != nil {
			t.Fatal(err)
		}
		return st, eng
	}
	st, eng := open()
	served, aside := eng.Sketches(), eng.SetAsideRecords()
	b := bitvec.MustSubset(0)
	if _, ok := eng.Table().Get(1, b); ok || aside != uint64(twenty) {
		t.Fatalf("the engine over the store serves {0} or sets %d records aside, want none served and %d", aside, twenty)
	}
	var ps []sketch.Published
	for i := uint64(0); i < 50; i++ {
		// The first 40 are the users the store holds at ℓ = 20.
		ps = append(ps, sketch.Published{ID: bitvec.UserID(i*0x9E3779B97F4A7C15 | 1), Subset: b, S: sketch.Sketch{Key: i * 7 % 512, Length: 9}})
	}
	if err := eng.IngestBatch(ps); err != nil {
		t.Fatal(err)
	}
	requireServed := func(eng *Engine, when string) {
		t.Helper()
		if eng.Sketches() != served+len(ps) || eng.SetAsideRecords() != aside {
			t.Fatalf("%s: the engine holds %d records and sets %d aside, want %d and %d", when, eng.Sketches(), eng.SetAsideRecords(), served+len(ps), aside)
		}
		for _, p := range ps {
			if got, ok := eng.Table().Get(p.ID, p.Subset); !ok || got != p.S {
				t.Fatalf("%s: user %v's acknowledged 9-bit record is %v, %v", when, p.ID, got, ok)
			}
		}
	}
	requireServed(eng, "after the publish")
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Shards[0].WALRecords != 0 {
		t.Fatal("the flush rolled nothing")
	}
	if err := st.CompactNow(2); err != nil {
		t.Fatalf("compacting {0} at two lengths: %v", err)
	}
	if st.Stats().Shards[0].Segments != 1 {
		t.Fatalf("%d segments after the compaction, want 1", st.Stats().Shards[0].Segments)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, eng = open()
	defer st.Close()
	requireServed(eng, "after a roll, a compaction and a reopen")
}
