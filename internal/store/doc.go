// Package store is the durable persistence layer under the collection
// engine.  The paper's central observation is that a published sketch is
// *permanently* public — a user discloses a few bits once and the analyst
// may query them forever — so the collector must never lose a sketch it has
// acknowledged.  This package provides exactly that guarantee.
//
// # Architecture
//
// The durable store shards records by hash(userID) % N.  Each shard owns
//
//   - a write-ahead log (wal.log): a magic, then length-prefixed,
//     checksummed frames in arrival order, one per appended group,
//     written (and optionally fsynced) before the publish is
//     acknowledged; and
//   - immutable sorted segment files (seg-NNNNNNNN.seg): produced by
//     rolling a WAL that passed the flush threshold, written to a
//     temporary file, fsynced and atomically renamed into place.
//
// A background compaction loop merges a shard's segments once enough of
// them accumulate, deduplicating by (user, subset, length) and keeping the
// newest record.
//
// # One record layout
//
// The paper's disclosure per (user, subset) is an ℓ-bit key — 9 bits for a
// million users — under a subset every other user who sketched it shares.
// So the store never frames a record on its own.  Everywhere it holds
// records it holds runs (run.go): a subset's tag once, a count, the words'
// shape, then user ids and sketches as packed columns — the sketch table's
// own layout.  A log frame is the runs of one appended group; a segment
// (format v5, segment.go) is a shard's runs in subset order, ids
// ascending, cut into checksummed blocks, and nothing else — the run
// directory, the sparse id index and the block offsets its readers use are
// derived from those bytes at Open and kept in memory; a roll sorts the
// log's runs into a segment, a compaction merges segments' runs, and a
// cold start hands the engine whole runs (RunIterator), one column load
// per subset.
//
// Both columns are the table's own, bit for bit.  A run's ids are an id
// column (sketch.IDs): blocks of 64 ids, each a width byte, a first id and
// the differences from id to id at that width — a byte where users were
// numbered as they enrolled — or the ids raw where they lie far apart or,
// in a log frame, arrived out of order.  A run's sketches are a
// sketch.Words' bits: ℓ written once, as the shape in the run header, and
// each key in ℓ bits, written and read by sketch.Words.AppendBits and
// AppendBitsFrom.  A subset has one length in a shard's files, as in a
// table's column: the engine admits its deployment's ℓ alone.  So a record whose user
// enrolled next to its neighbours costs 1.1 bytes of id and 9 bits of key,
// plus 1/16 byte of block sums in a segment; a record under a hashed id
// costs its 8 bytes as it always did.  Writing a run copies its columns,
// and reading one does the same back after checking them — the ids'
// widths, lengths and ascent, the words' shape and zero pad bits — and
// sorting, deduplicating and
// merging move ids by the block and words by their bits.  Only a log being
// decoded holds ids at 8 bytes, for as long as it takes to sort them.  The
// runs a replay hands out are fresh and belong to the callback: the table
// adopts them as its columns.
//
// The log is mirrored nowhere: its file's acknowledged prefix is decoded
// on demand — by a roll, or by the first read after an append — into
// normalized runs that are dropped again at the next append.
//
// # Recovery
//
// Open validates every segment and replays every WAL.  A torn WAL tail —
// the partial frame a crash mid-write leaves behind — is detected by the
// length/checksum framing and truncated away instead of failing the open,
// so a SIGKILLed collector restarts with every acknowledged sketch.
// Segment files are written atomically; Open walks each one's data area,
// verifying every checksum and decoding every record, so corruption there
// is reported as an error rather than silently dropped.
//
// # Older formats
//
// Formats v3 and v4 — a run's sketches as big-endian Pack words at a byte
// width, and in v3 its ids at 8 bytes — are read by one file (oldformat.go)
// and only to be converted; so is a run of whole Pack words (a shape past
// 30), which an older binary wrote in v5 for a column that met two
// lengths.  The first Open of a v3 or v4 directory marks its manifest as
// converting, which makes an older binary refuse the directory instead of
// misreading it, and then, before each shard serves, rewrites what it
// holds of the older forms (convertShard), one file at a time: a log
// becomes a segment beside a new empty log, a segment is rewritten at its
// own seq, each through a temporary file, fsync and rename, every record
// kept and a run of two lengths split into a run per length.  A v5 shard
// found holding whole words is converted the same way under its v5 mark.
// The manifest says v5 only once nothing of the older forms is left, so a
// crash mid-way resumes and the serving path reads v5 runs of one length
// alone.  Nothing writes the older forms.  A directory older than v3 is
// refused with ErrFormatTooOld.
//
// The store keeps a subset's records of two lengths as runs of their own,
// deduplicated each on its own; which length a deployment serves is its
// engine's to decide (engine.AttachStore).
//
// Once no directory a version before v5 wrote is left to open, the
// release after this one deletes oldformat.go whole, and with it the
// conversion.
package store
