package engine

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/store"
)

// TestEngineConcurrentIngestAndQuery hammers one Engine with parallel
// ingestion and Algorithm 2 queries (run it under -race).  It exercises the
// whole concurrent stack: the columnar Table, the lock-free
// per-goroutine PRF evaluators, and the sharded record loop inside
// Fraction.  Raising GOMAXPROCS makes the parallel shard path fire even on
// single-core CI runners.
func TestEngineConcurrentIngestAndQuery(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	p := 0.3
	params := sketch.MustParams(p, 10)
	h := testSource(p)
	eng, err := New(h, params)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.NewSketcher(h, params)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 4)
	v := bitvec.MustFromString("1010")

	// Seed enough records that queries cross the parallel-shard threshold.
	const seeded = 3000
	rng := stats.NewRNG(99)
	seedOne := func(id int) sketch.Published {
		profile := bitvec.Profile{ID: bitvec.UserID(id), Data: bitvec.FromUint(uint64(id)%16, 4)}
		s, err := sk.Sketch(rng, profile, subset)
		if err != nil {
			t.Fatal(err)
		}
		return sketch.Published{ID: profile.ID, Subset: subset, S: s}
	}
	for i := 1; i <= seeded; i++ {
		if err := eng.Ingest(seedOne(i)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers       = 4
		readers       = 4
		perWriter     = 200
		perReader     = 50
		combineEvery  = 10
		firstWriterID = seeded + 1
	)
	// Pre-sketch the writers' records single-threaded: the user-side RNG is
	// not safe for concurrent use, and this test targets the analyst stack.
	pending := make([][]sketch.Published, writers)
	for w := 0; w < writers; w++ {
		pending[w] = make([]sketch.Published, perWriter)
		for i := 0; i < perWriter; i++ {
			pending[w][i] = seedOne(firstWriterID + w*perWriter + i)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(batch []sketch.Published) {
			defer wg.Done()
			for _, pub := range batch {
				if err := eng.Ingest(pub); err != nil {
					errCh <- err
					return
				}
			}
		}(pending[w])
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				est, err := eng.Conjunction(subset, v)
				if err != nil {
					errCh <- err
					return
				}
				if est.Users < seeded {
					errCh <- errors.New("query observed fewer users than were already ingested")
					return
				}
				if i%combineEvery == 0 {
					// Appendix F path: exercises the parallel match
					// histogram too.
					if _, err := eng.UnionConjunction([]query.SubQuery{
						{Subset: subset, Value: v},
					}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// After the dust settles the table must hold every record and answer
	// deterministically.
	want := seeded + writers*perWriter
	if got := eng.Sketches(); got != want {
		t.Fatalf("Sketches() = %d, want %d", got, want)
	}
	a, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("repeated query unstable: %v vs %v", a, b)
	}
}

// TestFractionParallelMatchesSerial pins that sharding the record loop
// across workers cannot change the estimate: the parallel path must count
// exactly what the serial path counts.
func TestFractionParallelMatchesSerial(t *testing.T) {
	p := 0.25
	params := sketch.MustParams(p, 10)
	h := testSource(p)
	eng, err := New(h, params)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.NewSketcher(h, params)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 4)
	v := bitvec.MustFromString("0110")
	rng := stats.NewRNG(5)
	for i := 1; i <= 4000; i++ {
		profile := bitvec.Profile{ID: bitvec.UserID(i), Data: bitvec.FromUint(uint64(i)%16, 4)}
		s, err := sk.Sketch(rng, profile, subset)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest(sketch.Published{ID: profile.ID, Subset: subset, S: s}); err != nil {
			t.Fatal(err)
		}
	}

	prev := runtime.GOMAXPROCS(1)
	serial, err := eng.Conjunction(subset, v)
	runtime.GOMAXPROCS(8)
	parallel, err2 := eng.Conjunction(subset, v)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err2 != nil {
		t.Fatal(err2)
	}
	if serial != parallel {
		t.Fatalf("serial estimate %v != parallel estimate %v", serial, parallel)
	}
}

// flakyStore refuses every third record, so a steady share of ingests fails
// its append while queries read the table.
type flakyStore struct {
	store.Store
	calls atomic.Uint64
}

func (f *flakyStore) appendRecord(p sketch.Published) error {
	if f.calls.Add(1)%3 == 0 {
		return errDiskFull
	}
	return appendOne(f.Store, p)
}

func (f *flakyStore) AppendBatch(ps []sketch.Published) ([]int, error) {
	return appendEach(f.appendRecord, ps)
}

// TestEngineConcurrentIngestPlanAndFailedAppends runs ingestion, cached
// plan execution and failed durable appends against one table at once (run
// it under -race): writers publish record by record or in batches, and
// exactly what the store made durable lands — into column tails, or as runs
// merged into the column — while readers fold tails into fresh runs and scan
// the views they get.  Every answer must be internally consistent — all
// entries of one subset see one record set — and once the writers stop, the
// cached executor must agree with an uncached pass over the same table and
// with the store's own contents, so no bitmap or keep mask computed against
// a record the store refused can be in the cache.
func TestEngineConcurrentIngestPlanAndFailedAppends(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const p = 0.3
	params := sketch.MustParams(p, 10)
	eng, err := New(testSource(p), params)
	if err != nil {
		t.Fatal(err)
	}
	st := &flakyStore{Store: store.NewMem()}
	if err := eng.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 4)
	plan := query.NewPlan()
	for _, v := range []string{"1010", "0110", "1111"} {
		if _, err := eng.Estimator().PlanFraction(plan, subset, bitvec.MustFromString(v)); err != nil {
			t.Fatal(err)
		}
	}

	// One reader each: no filter, and two filters with a key, whose keep
	// masks share the cache with the bitmaps.
	keeps := []*query.UserFilter{
		nil,
		{Keep: func(id bitvec.UserID) bool { return id%2 == 0 }, Key: "even"},
		{Keep: func(id bitvec.UserID) bool { return id%3 == 0 }, Key: "third"},
	}
	const (
		writers   = 4
		perWriter = 1500
	)
	var (
		wg       sync.WaitGroup
		writing  sync.WaitGroup
		stop     = make(chan struct{})
		accepted atomic.Int64
	)
	// Half the writers publish record by record, half in batches of 30,
	// whose records land after their append as a run merged into the
	// column, or through the tail while the column is large.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writing.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Done()
			step := 1 + w%2*29
			for i := 0; i < perWriter; i += step {
				batch := make([]sketch.Published, step)
				for j := range batch {
					id := bitvec.UserID(w*perWriter + i + j + 1)
					batch[j] = sketch.Published{ID: id, Subset: subset, S: sketch.Sketch{Key: uint64(id) % 1024, Length: 10}}
				}
				var err error
				if step == 1 {
					err = eng.Ingest(batch[0])
				} else {
					err = eng.IngestBatch(batch)
				}
				if err != nil && !errors.Is(err, errDiskFull) {
					t.Errorf("ingest of users %d to %d: %v", batch[0].ID, batch[step-1].ID, err)
					return
				}
				if err == nil {
					// An ack means every record is durable and landed.
					for _, p := range batch {
						if _, ok := eng.Table().Get(p.ID, subset); !ok {
							t.Errorf("acknowledged ingest of user %d did not land", p.ID)
							return
						}
					}
					accepted.Add(int64(step))
					continue
				}
				if step == 1 {
					continue
				}
				// A batch cut short by a full disk lands what its store
				// made durable.  The ids are this writer's alone and a
				// record never leaves the table, so what it holds of them
				// now is what this call stored.
				for _, p := range batch {
					if _, ok := eng.Table().Get(p.ID, subset); ok {
						accepted.Add(1)
					}
				}
			}
		}(w)
	}
	for _, keep := range keeps {
		wg.Add(1)
		go func(keep *query.UserFilter) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.ExecutePlan(plan, keep)
				if err != nil {
					t.Errorf("ExecutePlan: %v", err)
					return
				}
				for _, f := range res.Fractions {
					if f.Records != res.Fractions[0].Records || f.Hits > f.Records {
						t.Errorf("entries of one subset disagree on its record set: %+v", res.Fractions)
						return
					}
				}
			}
		}(keep)
	}
	writing.Wait()
	close(stop)
	wg.Wait()

	if got := eng.Table().CountForSubset(subset); int64(got) != accepted.Load() {
		t.Fatalf("table holds %d records, %d ingests were acknowledged", got, accepted.Load())
	}
	stored := 0
	if err := st.IterateRuns(func(r sketch.Run) error { stored += r.Len(); return nil }); err != nil {
		t.Fatal(err)
	}
	if int64(stored) != accepted.Load() {
		t.Fatalf("store holds %d records, %d ingests were acknowledged", stored, accepted.Load())
	}
	for _, keep := range keeps {
		cached, err := eng.ExecutePlan(plan, keep)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := eng.Estimator().ExecutePlanOver(eng.Table(), plan, keep, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached.Fractions, fresh.Fractions) {
			t.Fatalf("cached plan answer %+v differs from an uncached pass %+v", cached.Fractions, fresh.Fractions)
		}
	}
}
