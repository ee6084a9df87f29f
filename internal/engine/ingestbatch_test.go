package engine

import (
	"errors"
	"reflect"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

// fakeBatchStore records AppendBatch traffic and fails configurable
// indices, standing in for the durable store so the tests can pin down
// the engine's admission and landing bookkeeping exactly.
type fakeBatchStore struct {
	store.Store
	failIdx map[int]bool // indices within the next AppendBatch call to fail
	err     error        // error returned when any index failed
	batches [][]sketch.Published
	// during, when set, runs once the appends are made and before
	// AppendBatch returns: where a query racing the batch would look.
	during func()
}

func (f *fakeBatchStore) AppendBatch(ps []sketch.Published) (failed []int, err error) {
	f.batches = append(f.batches, append([]sketch.Published(nil), ps...))
	for i, p := range ps {
		if f.failIdx[i] {
			failed = append(failed, i)
			continue
		}
		if err := appendOne(f.Store, p); err != nil {
			return nil, err
		}
	}
	if f.during != nil {
		f.during()
	}
	if len(failed) > 0 {
		return failed, f.err
	}
	return nil, nil
}

func batchPub(id uint64, subset bitvec.Subset) sketch.Published {
	return sketch.Published{ID: bitvec.UserID(id), Subset: subset, S: sketch.Sketch{Key: id % 1024, Length: 10}}
}

// TestIngestBatchLandsAsOneStoreCall: a batch against an attached store
// goes through exactly one AppendBatch call — the property that
// turns a gateway batch into one commit window per shard — and every
// record is admitted and stored.
func TestIngestBatchLandsAsOneStoreCall(t *testing.T) {
	p := 0.3
	fs := &fakeBatchStore{Store: store.NewMem()}
	eng, err := NewWithStore(testSource(p), sketch.MustParams(p, 10), fs)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	batch := make([]sketch.Published, 50)
	for i := range batch {
		batch[i] = batchPub(uint64(i+1), subset)
	}
	if err := eng.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(fs.batches) != 1 || len(fs.batches[0]) != len(batch) {
		t.Fatalf("batch landed as %d store calls, want 1 call carrying all %d records", len(fs.batches), len(batch))
	}
	if eng.Sketches() != len(batch) {
		t.Fatalf("engine has %d sketches, want %d", eng.Sketches(), len(batch))
	}
}

// TestIngestBatchIdempotentDuplicatesSkipped: identical re-publishes in
// a batch are acknowledged without being re-logged — the store call must
// carry only the genuinely new records.
func TestIngestBatchIdempotentDuplicatesSkipped(t *testing.T) {
	p := 0.3
	fs := &fakeBatchStore{Store: store.NewMem()}
	eng, err := NewWithStore(testSource(p), sketch.MustParams(p, 10), fs)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	a, b := batchPub(1, subset), batchPub(2, subset)
	if err := eng.Ingest(a); err != nil {
		t.Fatal(err)
	}
	fs.batches = nil
	if err := eng.IngestBatch([]sketch.Published{a, b, a}); err != nil {
		t.Fatalf("batch with idempotent duplicates: %v", err)
	}
	if len(fs.batches) != 1 || len(fs.batches[0]) != 1 || fs.batches[0][0].ID != b.ID {
		t.Fatalf("store received %v, want exactly the one new record", fs.batches)
	}
	if eng.Sketches() != 2 {
		t.Fatalf("engine has %d sketches, want 2", eng.Sketches())
	}
}

// TestIngestBatchConflictStopsAdmission: a conflicting sketch mid-batch
// is rejected, nothing after it is admitted (Router.PublishAll's
// no-new-starts rule), and the records admitted before it still land
// durably.
func TestIngestBatchConflictStopsAdmission(t *testing.T) {
	p := 0.3
	fs := &fakeBatchStore{Store: store.NewMem()}
	eng, err := NewWithStore(testSource(p), sketch.MustParams(p, 10), fs)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	if err := eng.Ingest(batchPub(1, subset)); err != nil {
		t.Fatal(err)
	}
	conflict := batchPub(1, subset)
	conflict.S.Key++ // a different sketch for an existing (user, subset)
	fs.batches = nil
	err = eng.IngestBatch([]sketch.Published{batchPub(2, subset), conflict, batchPub(3, subset)})
	if stored := eng.Sketches() - 1; err == nil || stored != 1 {
		t.Fatalf("conflicting sketch mid-batch = %d stored, %v; want the record before it stored and an error", stored, err)
	}
	if len(fs.batches) != 1 || len(fs.batches[0]) != 1 || fs.batches[0][0].ID != 2 {
		t.Fatalf("store received %v, want only the record admitted before the conflict", fs.batches)
	}
	if _, ok := eng.Table().Get(2, subset); !ok {
		t.Fatal("record admitted before the conflict was lost")
	}
	if _, ok := eng.Table().Get(3, subset); ok {
		t.Fatal("record after the conflict was admitted despite no-new-starts")
	}
	if got, _ := eng.Table().Get(1, subset); got != batchPub(1, subset).S {
		t.Fatal("conflicting sketch overwrote the original")
	}
}

// TestIngestBatchLandsExactlyDurableRecords: when the store reports a
// partial failure, exactly the records it made durable land — durable
// records must stay (replay would resurrect them), and a record whose
// append failed is never visible: not to a view taken while the append is
// in flight, when nothing of the batch has landed yet, and not after it
// returns.  The failed records are retryable once the store recovers.
func TestIngestBatchLandsExactlyDurableRecords(t *testing.T) {
	p := 0.3
	fs := &fakeBatchStore{Store: store.NewMem(), failIdx: map[int]bool{1: true}, err: errDiskFull}
	eng, err := NewWithStore(testSource(p), sketch.MustParams(p, 10), fs)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	looked := false
	fs.during = func() {
		looked = true
		if v, _ := eng.Table().View(subset); v.Len() != 0 {
			t.Errorf("a view taken during the append holds %d records of the batch, want none before it is durable", v.Len())
		}
		if _, ok := eng.Table().Get(2, subset); ok {
			t.Error("the record whose append failed is visible while the append is in flight")
		}
	}
	batch := []sketch.Published{batchPub(1, subset), batchPub(2, subset), batchPub(3, subset)}
	if err := eng.IngestBatch(batch); !errors.Is(err, errDiskFull) || eng.Sketches() != 2 || !looked {
		t.Fatalf("IngestBatch with a failing store = %d stored, %v; want 2 and errDiskFull", eng.Sketches(), err)
	}
	if _, ok := eng.Table().Get(2, subset); ok {
		t.Fatal("record the store failed is still queryable")
	}
	for _, id := range []uint64{1, 3} {
		if _, ok := eng.Table().Get(bitvec.UserID(id), subset); !ok {
			t.Fatalf("durable record %d was withheld alongside the failed one", id)
		}
	}
	// Store recovers; retrying just the failed record succeeds.
	fs.failIdx, fs.during = nil, nil
	if err := eng.IngestBatch([]sketch.Published{batch[1]}); err != nil {
		t.Fatalf("retry after recovery = %v", err)
	}
	if eng.Sketches() != 3 {
		t.Fatalf("engine has %d sketches after retry, want 3", eng.Sketches())
	}
}

// TestIngestBatchDurableRoundTrip drives the integrated path — engine
// over the real durable store in fsync mode — and checks a batch is
// queryable immediately and intact after a restart.
func TestIngestBatchDurableRoundTrip(t *testing.T) {
	p := 0.3
	params := sketch.MustParams(p, 10)
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Shards: 4, Fsync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewWithStore(testSource(p), params, st)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	const n = 300
	batch := make([]sketch.Published, n)
	for i := range batch {
		batch[i] = batchPub(uint64(i+1), subset)
	}
	if err := eng.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if eng.Sketches() != n {
		t.Fatalf("engine has %d sketches, want %d", eng.Sketches(), n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2, err := NewWithStore(testSource(p), params, st2)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Sketches() != n {
		t.Fatalf("rehydrated engine has %d sketches, want %d", eng2.Sketches(), n)
	}
}

// appendOne appends p to st as a batch of one.
func appendOne(st store.Store, p sketch.Published) error {
	_, err := st.AppendBatch([]sketch.Published{p})
	return err
}

// appendEach is AppendBatch for a fake that intercepts records one by one:
// a batch reaches the fake record by record instead of passing around it
// into the store it embeds.
func appendEach(appendOne func(sketch.Published) error, ps []sketch.Published) (failed []int, err error) {
	for i, p := range ps {
		if aerr := appendOne(p); aerr != nil {
			failed = append(failed, i)
			if err == nil {
				err = aerr
			}
		}
	}
	return failed, err
}

// TestIngestHandsTheStoreOneSubsetValue: every record off the wire carries
// a Subset parsed for it alone, and a store may hold what it is handed
// (store.Mem does; a commit window does while queued).  Admission must therefore swap
// each record's Subset for the table's own, so the records of a subset
// reaching the store — singly or in a batch — all share one position array.
func TestIngestHandsTheStoreOneSubsetValue(t *testing.T) {
	p := 0.3
	tag := bitvec.Range(0, 10).Tag()
	parsed := func(id uint64) sketch.Published {
		b, err := bitvec.ParseTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		return batchPub(id, b)
	}
	positions := func(b bitvec.Subset) uintptr { return reflect.ValueOf(b).Field(0).Pointer() }
	if positions(parsed(1).Subset) == positions(parsed(1).Subset) {
		t.Fatal("test premise: two parsed subsets must not share their positions")
	}

	fs := &fakeBatchStore{Store: store.NewMem()}
	eng, err := NewWithStore(testSource(p), sketch.MustParams(p, 10), fs)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]sketch.Published, 40)
	for i := range batch {
		batch[i] = parsed(uint64(i + 1))
	}
	if err := eng.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, rec := range fs.batches[0] {
		if positions(rec.Subset) != positions(fs.batches[0][0].Subset) {
			t.Fatalf("record %v of the batch reached the store with a Subset of its own", rec.ID)
		}
	}

	fs = &fakeBatchStore{Store: store.NewMem()}
	eng, err = NewWithStore(testSource(p), sketch.MustParams(p, 10), fs)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		if err := eng.Ingest(parsed(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, one := range fs.batches {
		if positions(one[0].Subset) != positions(fs.batches[0][0].Subset) {
			t.Fatalf("record %v reached the store with a Subset of its own", one[0].ID)
		}
	}
}

// silentFailStore fails every AppendBatch without naming a record: what
// store.BatchAppender's contract forbids and a store may still do.
type silentFailStore struct {
	store.Store
}

func (silentFailStore) AppendBatch([]sketch.Published) ([]int, error) { return nil, errDiskFull }

// TestIngestBatchStoreErrorNamingNothing: a store that errs with an empty
// failed list may have lost any of the batch, so nothing of it lands or is
// counted and the store's error is returned — whether or not a conflict
// stopped admission partway, since every admitted record precedes it.
func TestIngestBatchStoreErrorNamingNothing(t *testing.T) {
	p := 0.3
	eng, err := NewWithStore(testSource(p), sketch.MustParams(p, 10), silentFailStore{store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.Range(0, 2)
	if err := eng.table.Add(batchPub(1, subset)); err != nil {
		t.Fatal(err)
	}
	conflict := batchPub(1, subset)
	conflict.S.Key++
	for _, tc := range []struct {
		name  string
		batch []sketch.Published
	}{
		{"no conflict", []sketch.Published{batchPub(2, subset), batchPub(3, subset)}},
		{"a mid-batch conflict", []sketch.Published{batchPub(2, subset), conflict, batchPub(3, subset)}},
	} {
		if err := eng.IngestBatch(tc.batch); !errors.Is(err, errDiskFull) || eng.Sketches() != 1 {
			t.Errorf("%s: a store failing without naming records = %v, %d sketches; want errDiskFull, 1", tc.name, err, eng.Sketches())
		}
	}
}

// TestIngestBatchRetiresCachedPlan: a cached plan entry serves its repeat
// without evaluating H, and a batch into its subset — one generation bump
// as it lands — makes the next execution evaluate again and count the new
// users, agreeing with an uncached pass.
func TestIngestBatchRetiresCachedPlan(t *testing.T) {
	eng, subset, _ := planEngine(t, 500)
	v := bitvec.MustFromString("1010")
	cold, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	evals := eng.cache.evals.Load()
	if _, err := eng.Conjunction(subset, v); err != nil || eng.cache.evals.Load() != evals {
		t.Fatalf("a warm repeat evaluated H %d more times (%v), want 0", eng.cache.evals.Load()-evals, err)
	}
	batch := make([]sketch.Published, 100)
	for i := range batch {
		batch[i] = sketch.Published{ID: bitvec.UserID(10_000 + i), Subset: subset, S: sketch.Sketch{Key: uint64(i) % 1024, Length: 10}}
	}
	if err := eng.IngestBatch(batch); err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	after, err := eng.Conjunction(subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if eng.cache.evals.Load() == evals || after.Users != cold.Users+len(batch) {
		t.Fatalf("after a batch into the subset: %d users (want %d), %d new evaluations (want > 0)", after.Users, cold.Users+len(batch), eng.cache.evals.Load()-evals)
	}
	uncached, err := eng.Estimator().Fraction(eng.Estimator().TableSource(eng.Table()), subset, v)
	if err != nil {
		t.Fatal(err)
	}
	if after != uncached {
		t.Fatalf("the re-evaluated answer %+v differs from an uncached pass %+v", after, uncached)
	}
}
