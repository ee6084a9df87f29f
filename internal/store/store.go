package store

import (
	"sync"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// Store is the persistence interface the engine writes published sketches
// through — a batch at a time, a lone publish being a batch of one — and
// rehydrates its in-memory table from on startup, as whole runs.
// Implementations must be safe for concurrent use.
type Store interface {
	BatchAppender
	RunIterator
	// Flush makes every appended record durable (fsync) and rolls any WAL
	// past the flush threshold into a segment.
	Flush() error
	// Close flushes and releases all resources.  The store must not be
	// used afterwards.
	Close() error
	// Stats reports sizes and record counts for monitoring.
	Stats() Stats
}

// BatchAppender is the part of Store that lands many records in one
// durability operation — the durable store groups a batch into one
// commit-window entry (one fsync, one scheduler park) per touched
// shard, which is what carries batched ingest to millions of records
// per second while every acknowledged record is still durable.
type BatchAppender interface {
	// AppendBatch durably records every record of ps whose index is absent
	// from failed: once it returns, those records must survive a crash of
	// the process (subject to the implementation's fsync policy for machine
	// crashes).  Atomicity is per internal grouping (per shard for the
	// durable store), not per call: on error, failed lists exactly the
	// records that did NOT become durable, in ascending input order, and
	// err is the earliest failed record's cause.  Records outside failed
	// are durable and stay — the engine lands exactly those, and withholds
	// the failed ones, which it never made visible.
	AppendBatch(ps []sketch.Published) (failed []int, err error)
}

// ShardStats describes one shard of a durable store.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// WALBytes is the current size of the shard's write-ahead log.
	WALBytes int64
	// WALRecords is the number of records in the WAL (not yet rolled
	// into a segment).
	WALRecords uint64
	// Segments is the number of immutable segment files.
	Segments int
	// SegmentBytes is the total size of the segment files.
	SegmentBytes int64
	// SegmentRecords is the total number of records across segments
	// (before deduplication against the WAL).
	SegmentRecords uint64
}

// Stats is a snapshot of a store's size and layout.
type Stats struct {
	// Dir is the data directory, empty for in-memory stores.
	Dir string
	// Records is the total number of raw records (WAL + segments, before
	// deduplication).
	Records uint64
	// Shards holds per-shard detail; nil for in-memory stores.
	Shards []ShardStats
}

// WALBytes returns the total WAL size across shards.
func (s Stats) WALBytes() int64 {
	var n int64
	for _, sh := range s.Shards {
		n += sh.WALBytes
	}
	return n
}

// SegmentBytes returns the total segment size across shards.
func (s Stats) SegmentBytes() int64 {
	var n int64
	for _, sh := range s.Shards {
		n += sh.SegmentBytes
	}
	return n
}

// Segments returns the total segment count across shards.
func (s Stats) Segments() int {
	n := 0
	for _, sh := range s.Shards {
		n += sh.Segments
	}
	return n
}

// recordKey identifies the (user, subset) pair deduplication works over.
type recordKey struct {
	id     bitvec.UserID
	subset string
}

func keyOf(p sketch.Published) recordKey {
	return recordKey{id: p.ID, subset: p.Subset.Key()}
}

// Mem is an in-memory Store: the same interface and deduplication
// semantics as the durable store with no disk underneath.  Tests and
// examples that do not care about persistence use it so the engine's
// storage path stays exercised.
type Mem struct {
	mu      sync.Mutex
	records map[recordKey]sketch.Published
	order   []recordKey // first-append order, for deterministic iteration
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{records: make(map[recordKey]sketch.Published)}
}

// AppendBatch implements Store; an in-memory append cannot fail.
// Re-appending a (user, subset) pair overwrites the previous record,
// matching the durable store's newest-wins merge.
func (m *Mem) AppendBatch(ps []sketch.Published) ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range ps {
		k := keyOf(p)
		if _, ok := m.records[k]; !ok {
			m.order = append(m.order, k)
		}
		m.records[k] = p
	}
	return nil, nil
}

// IterateRuns implements Store.
func (m *Mem) IterateRuns(fn func(r sketch.Run) error) error {
	m.mu.Lock()
	set := newRunSet()
	for _, k := range m.order {
		set.add(m.records[k])
	}
	m.mu.Unlock()
	for _, r := range set.normalized() {
		if err := fn(r.Run); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Store; there is nothing to make durable.
func (m *Mem) Flush() error { return nil }

// Close implements Store.
func (m *Mem) Close() error { return nil }

// Stats implements Store.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Records: uint64(len(m.records))}
}
