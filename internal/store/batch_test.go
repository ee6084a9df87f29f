package store

import (
	"errors"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// TestAppendBatchDurableAndQueryable: one AppendBatch call spanning every
// shard lands with no failures, every record is immediately queryable
// (acknowledged means queryable), and the whole batch survives a reopen
// (acknowledged means durable).
func TestAppendBatchDurableAndQueryable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 4, Fsync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := bitvec.MustSubset(0, 3, 5)
	const n = 200
	batch := make([]sketch.Published, n)
	for i := range batch {
		batch[i] = testRecord(uint64(i+1), b)
	}
	failed, err := st.AppendBatch(batch)
	if err != nil || len(failed) != 0 {
		t.Fatalf("AppendBatch = (%v, %v), want no failures", failed, err)
	}
	for _, p := range batch {
		got, ok, err := st.Lookup(p.ID, b.Key())
		if err != nil || !ok || got.S != p.S {
			t.Fatalf("acknowledged record %d not queryable: %+v %v %v", p.ID, got, ok, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := indexRecords(t, collect(t, st2))
	if len(got) != n {
		t.Fatalf("reopen recovered %d records, want %d", len(got), n)
	}
	for _, p := range batch {
		if got[keyOf(p)] != p.S {
			t.Fatalf("record %d missing or corrupt after reopen", p.ID)
		}
	}
}

// TestAppendBatchEmptyAndClosed: an empty batch is a no-op, and a batch
// against a closed store reports EVERY index failed with ErrClosed —
// callers land precisely what the store does not name, so the failed list
// must be complete even when nothing was attempted.
func TestAppendBatchEmptyAndClosed(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 2, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := st.AppendBatch(nil); err != nil || failed != nil {
		t.Fatalf("empty AppendBatch = (%v, %v), want (nil, nil)", failed, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b := bitvec.MustSubset(0, 3)
	batch := []sketch.Published{testRecord(1, b), testRecord(2, b), testRecord(3, b)}
	failed, err := st.AppendBatch(batch)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendBatch on a closed store = %v, want ErrClosed", err)
	}
	if len(failed) != len(batch) {
		t.Fatalf("closed AppendBatch failed %v, want all %d indices", failed, len(batch))
	}
	for i, f := range failed {
		if f != i {
			t.Fatalf("failed[%d] = %d, want %d (ascending, complete)", i, f, i)
		}
	}
}

// TestAppendBatchOversizeFailsOnlyItsShardGroup: a record too large for
// the WAL fails its whole per-shard group — atomicity is per shard, and
// the oversize check runs before the group joins a commit window so one
// bad record cannot fail an unrelated cohort — while the other shard's
// records land durably.  failed must list exactly the failed records in
// ascending input order, and the store must stay healthy for follow-up
// batches on every shard.
func TestAppendBatchOversizeFailsOnlyItsShardGroup(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 2, Fsync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := bitvec.MustSubset(0, 3)
	// Encoded length 8+4+(8+8*2^17)+4+sketch > maxRecordSize (1 MiB).
	huge := bitvec.Range(0, 1<<17)

	// Pin two ids per shard so the batch provably spans both groups
	// (shard placement is a hash, so ids are found by search, not
	// arithmetic).
	var idsOn [2][]uint64
	for id := uint64(1); len(idsOn[0]) < 2 || len(idsOn[1]) < 2; id++ {
		s := userShard(bitvec.UserID(id), 2)
		if len(idsOn[s]) < 2 {
			idsOn[s] = append(idsOn[s], id)
		}
	}
	badGroup, goodGroup := idsOn[0], idsOn[1]
	batch := []sketch.Published{
		testRecord(goodGroup[0], b),   // healthy shard: must land
		testRecord(badGroup[0], huge), // oversize: fails its group
		testRecord(badGroup[1], b),    // same shard as the oversize: fails with it
		testRecord(goodGroup[1], b),   // healthy shard again: must land
	}
	wantFailed := []int{1, 2}
	failed, err := st.AppendBatch(batch)
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("AppendBatch with an oversize record = %v, want ErrRecordTooLarge", err)
	}
	if len(failed) != len(wantFailed) {
		t.Fatalf("failed = %v, want %v", failed, wantFailed)
	}
	for i := range wantFailed {
		if failed[i] != wantFailed[i] {
			t.Fatalf("failed = %v, want %v", failed, wantFailed)
		}
	}
	for _, i := range []int{0, 3} {
		p := batch[i]
		got, ok, err := st.Lookup(p.ID, b.Key())
		if err != nil || !ok || got.S != p.S {
			t.Fatalf("record %d on the healthy shard not durable: %+v %v %v", p.ID, got, ok, err)
		}
	}
	if _, ok, _ := st.Lookup(batch[2].ID, b.Key()); ok {
		t.Fatalf("record %d from the failed group became queryable", batch[2].ID)
	}
	// A batch wholly on one shard is appended as it stands, and fails as
	// one group too: every index, in order.
	failed, err = st.AppendBatch(batch[1:3])
	if !errors.Is(err, ErrRecordTooLarge) || len(failed) != 2 || failed[0] != 0 || failed[1] != 1 {
		t.Fatalf("one-shard AppendBatch with an oversize record = (%v, %v), want both indices and ErrRecordTooLarge", failed, err)
	}
	if _, ok, _ := st.Lookup(batch[2].ID, b.Key()); ok {
		t.Fatalf("record %d from the failed one-shard batch became queryable", batch[2].ID)
	}
	// The failed shard is not poisoned: a clean follow-up batch to both
	// shards succeeds.
	retry := []sketch.Published{testRecord(badGroup[0]+1000, b), testRecord(goodGroup[0]+1000, b)}
	if failed, err := st.AppendBatch(retry); err != nil || len(failed) != 0 {
		t.Fatalf("follow-up AppendBatch = (%v, %v), want clean", failed, err)
	}
}
