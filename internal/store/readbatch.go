package store

import (
	"fmt"
	"os"

	"sketchprivacy/internal/sketch"
)

// BatchReader is implemented by stores that can stream their contents in
// bounded batches without materialising a whole shard in memory.  The
// cluster rebalance engine reads a node's records through it: the node
// serves each read from the blocks of at most one segment file (or the
// log's runs), so streaming a multi-gigabyte shard never loads a segment
// whole.
//
// The cursor is opaque: pass zero to start a stream and the returned next
// cursor thereafter.  The stream is stateless on the store side, so it
// tolerates concurrent appends, rolls and compactions with a one-sided
// guarantee: a record present when the stream started is returned at least
// once (possibly more than once if a roll or compaction moved it), and a
// record appended after the stream started may or may not appear.
// Consumers must therefore be idempotent — the transfer path is, via the
// engine's identical-republish ingestion.
type BatchReader interface {
	// ReadBatch returns up to max records starting at cursor, the cursor
	// for the next call, and whether the stream is exhausted.
	ReadBatch(cursor uint64, max int) (records []sketch.Published, next uint64, done bool, err error)
}

// ReadBatch implements BatchReader for the in-memory store.  The cursor is
// an index into the first-append order, which only grows (overwrites
// replace values in place), so the no-skip guarantee is trivial.
func (m *Mem) ReadBatch(cursor uint64, max int) ([]sketch.Published, uint64, bool, error) {
	if max <= 0 {
		max = defaultBatchMax
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cursor >= uint64(len(m.order)) {
		return nil, cursor, true, nil
	}
	end := cursor + uint64(max)
	if end > uint64(len(m.order)) {
		end = uint64(len(m.order))
	}
	out := make([]sketch.Published, 0, end-cursor)
	for _, k := range m.order[cursor:end] {
		out = append(out, m.records[k])
	}
	return out, end, end == uint64(len(m.order)), nil
}

// defaultBatchMax is the record count used when a caller passes max <= 0.
const defaultBatchMax = 2048

// The durable store's cursor packs a position into 64 bits:
//
//	[16 bits shard][2 bits phase][23 bits segment seq][23 bits offset]
//
// Per shard the log streams first — its normalized runs, by record
// ordinal — then the segments in ascending sequence order.  That order is what makes the stream skip-free under
// concurrency: a roll moves WAL records into a segment with a sequence
// higher than any existing one (still unread, because segments come after
// the WAL), and a compaction merges segments into one with a higher
// sequence than all of its inputs (so records from an unread input are
// re-encountered, never lost).  An append between two reads of the log
// inserts into its sorted runs, which moves later records to higher
// ordinals, never lower.  All three events can cause re-reads, which the
// idempotent consumer absorbs.
const (
	curPhaseWAL  = 0 // streaming the log's runs at offset
	curPhaseSeek = 1 // finding the smallest segment seq greater than seq
	curPhaseSeg  = 2 // streaming segment seq at offset

	curSeqBits = 23
	curOffBits = 23
	curSeqMax  = 1<<curSeqBits - 1
	curOffMax  = 1<<curOffBits - 1
)

type batchCursor struct {
	shard int
	phase uint64
	seq   uint64
	off   uint64
}

func packCursor(c batchCursor) uint64 {
	return uint64(c.shard)<<48 | c.phase<<46 | c.seq<<curOffBits | c.off
}

func unpackCursor(v uint64) batchCursor {
	return batchCursor{
		shard: int(v >> 48),
		phase: v >> 46 & 3,
		seq:   v >> curOffBits & curSeqMax,
		off:   v & curOffMax,
	}
}

// ReadBatch implements BatchReader for the durable store.  Each call reads
// from at most one segment file, without the shard lock; the lock covers
// the segment-list snapshot and the log phase, which may have to decode
// the log (once per append at most).
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
	c := unpackCursor(cursor)
	var out []sketch.Published
	for len(out) < max && c.shard < len(d.shards) {
		sh := d.shards[c.shard]
		switch c.phase {
		case curPhaseWAL:
			sh.mu.Lock()
			if sh.wal.records > curOffMax {
				sh.mu.Unlock()
				return nil, 0, false, fmt.Errorf("store: shard %d log holds %d records, exceeding the streaming cursor range", sh.id, sh.wal.records)
			}
			runs, err := sh.wal.runs()
			if err != nil {
				sh.mu.Unlock()
				return nil, cursor, false, err
			}
			before := len(out)
			skip := int(c.off)
			for _, r := range runs {
				if skip >= r.Len() {
					skip -= r.Len()
					continue
				}
				out = r.Slice(skip, min(r.Len(), skip+max-len(out))).AppendTo(out)
				skip = 0
				if len(out) == max {
					break
				}
			}
			sh.mu.Unlock()
			if len(out) == before {
				// Log exhausted (or truncated by a roll — the rolled
				// records reappear in a not-yet-read segment).
				c.phase, c.seq, c.off = curPhaseSeek, 0, 0
				continue
			}
			c.off += uint64(len(out) - before)
		case curPhaseSeek:
			sh.mu.Lock()
			var next segmentMeta
			found := false
			for _, seg := range sh.segs {
				if seg.seq > c.seq && (!found || seg.seq < next.seq) {
					next, found = seg, true
				}
			}
			sh.mu.Unlock()
			if !found {
				c = batchCursor{shard: c.shard + 1}
				continue
			}
			if next.seq > curSeqMax {
				return nil, 0, false, fmt.Errorf("store: shard %d segment seq %d exceeds the streaming cursor range", sh.id, next.seq)
			}
			c.phase, c.seq, c.off = curPhaseSeg, next.seq, 0
		case curPhaseSeg:
			sh.mu.Lock()
			var meta segmentMeta
			found := false
			for _, seg := range sh.segs {
				if seg.seq == c.seq {
					meta, found = seg, true
					break
				}
			}
			sh.mu.Unlock()
			if !found {
				// Compacted away mid-stream; its records live in a
				// higher-seq segment now.
				c.phase = curPhaseSeek
				continue
			}
			total := meta.idx.records()
			if total > curOffMax {
				return nil, 0, false, fmt.Errorf("store: shard %d segment %d holds %d records, exceeding the streaming cursor range", sh.id, c.seq, total)
			}
			if c.off >= total {
				c.phase = curPhaseSeek
				continue
			}
			records, err := readSegmentRange(meta, sh.m, int(c.off), max-len(out))
			if err != nil {
				if os.IsNotExist(err) {
					// Compacted away between the lookup and the read; its
					// records live in a higher-seq segment now.
					c.phase = curPhaseSeek
					continue
				}
				return nil, cursor, false, err
			}
			out = append(out, records...)
			c.off += uint64(len(records))
			if c.off >= total {
				c.phase = curPhaseSeek
			}
		}
	}
	return out, packCursor(c), c.shard >= len(d.shards), nil
}
