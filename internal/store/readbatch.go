package store

import (
	"errors"

	"sketchprivacy/internal/sketch"
)

// BatchReader is implemented by stores that can stream their contents in
// bounded batches.  Nothing in the product reads it — the rebalance stream
// reads the node's table (engine.Engine.SnapshotBatch) — and it stays only
// because the fleet benchmark's smoke test asserts that its traced store
// satisfies it; it goes when that harness stops naming it.
//
// The cursor is opaque: pass zero to start a stream and the returned next
// cursor thereafter.  The stream is stateless on the store side, so it
// tolerates concurrent appends, rolls and compactions with a one-sided
// guarantee: a record present when the stream started is returned at least
// once (possibly more than once if an append moved it), and a record
// appended after the stream started may or may not appear.  Consumers must
// therefore be idempotent.
type BatchReader interface {
	// ReadBatch returns up to max records starting at cursor, the cursor
	// for the next call, and whether the stream is exhausted.
	ReadBatch(cursor uint64, max int) (records []sketch.Published, next uint64, done bool, err error)
}

// defaultBatchMax is the record count used when a caller passes max <= 0.
const defaultBatchMax = 2048

// errBatchFull ends a ReadBatch's iteration once it holds max records.
var errBatchFull = errors.New("store: batch full")

// ReadBatch implements BatchReader for the durable store, kept for the
// fleet benchmark's interface assertion alone (see BatchReader).  The
// cursor is the ordinal of the next record in Iterate's canonical
// (subset, user) order: each call iterates a consistent cut of the store
// (IterateRuns), skips whole runs before the cursor and takes up to max
// records from there.  Records are only ever added to that order — a roll
// or a compaction moves a record between files, not within the order — so
// a concurrent append shifts later positions right, which re-reads a
// record and never skips one.
func (d *Durable) ReadBatch(cursor uint64, max int) ([]sketch.Published, uint64, bool, error) {
	if max <= 0 {
		max = defaultBatchMax
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, cursor, false, ErrClosed
	}
	var out []sketch.Published
	skip := cursor
	err := d.IterateRuns(func(r sketch.Run) error {
		if len(out) == max {
			return errBatchFull // with this run left for the next call
		}
		if n := uint64(r.Len()); skip >= n {
			skip -= n
			return nil
		}
		lo := int(skip)
		hi := min(r.Len(), lo+max-len(out))
		out, skip = r.Slice(lo, hi).AppendTo(out), 0
		if hi < r.Len() {
			return errBatchFull
		}
		return nil
	})
	next := cursor + uint64(len(out))
	switch {
	case errors.Is(err, errBatchFull):
		return out, next, false, nil
	case err != nil:
		return nil, cursor, false, err
	}
	return out, next, true, nil
}
