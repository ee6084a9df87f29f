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
//   - a write-ahead log (wal.log): a magic, then length-prefixed (a
//     uvarint), checksummed frames in arrival order, one per appended group,
//     written (and optionally fsynced) before the publish is
//     acknowledged; and
//   - immutable sorted segment files (seg-NNNNNNNN.seg): the log's own
//     frames, one per run, sorted, deduplicated and sealed with a record
//     count; produced by rolling a WAL that passed the flush threshold,
//     written to a temporary file, fsynced and atomically renamed into
//     place.
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
// records it holds runs (run.go): a subset named once, by its stretches of
// consecutive positions — 3 bytes for the prefix subset P10 — the words'
// shape, a count unless the run is one record, then user ids and sketches
// as packed columns — the sketch table's own layout.  A log frame is the runs
// of one appended group, a run per stretch of its records of one subset
// and length — the engine hands a batch over subset by subset, ids
// ascending, so a run per subset, and a run whose users are the previous
// run's, one for one, carries no ids of its own; a lone record's frame is
// 20 bytes at P10 and ℓ = 9, of which its id and key are 11; a segment
// (format v9, segment.go) is a shard's runs in subset order, ids
// ascending, each in a frame of its own, and nothing else — the run
// directory its readers use is derived from those bytes at Open and kept
// in memory, and every read takes a run's frame whole and parses it as the
// log's replay does (segindex.go); a roll sorts
// the log's runs into a segment, a compaction merges segments' runs, and a
// cold start hands the engine whole runs (RunIterator), one column load
// per subset, as Lookup and ReadBatch read them too.
//
// Both columns are the table's own, bit for bit.  A run's ids are an id
// column (sketch.IDs): blocks of 64 ids, each a width byte b, a first id
// and the differences from id to id less one in b bits — a bit or two
// where users were numbered as they enrolled, none where they are
// consecutive — or the ids raw where they lie far apart or, in a log
// frame, arrived out of order.  A run's sketches are a sketch.Words'
// bits: ℓ written once, as the shape in the run header, and each key in ℓ
// bits, written and read by sketch.Words.AppendBits and AppendBitsFrom.
// A subset has one length in a shard's files, as in a table's column: the
// engine admits its deployment's ℓ alone.  So a record whose user
// enrolled next to its neighbours costs a quarter of a byte of id and 9
// bits of key, and a run its header and frame; a record under a hashed id
// costs its 8 bytes as it always did.  Writing a run copies
// its columns, and reading one does the same back after checking them —
// the ids' widths, pad bits, lengths and ascent, the words' shape and
// zero pad bits — and sorting, deduplicating and merging move ids by the
// block and words by their bits.  Only a log being decoded holds ids at 8
// bytes, for as long as it takes to sort them.  The
// runs a replay hands out are fresh and belong to the callback: the table
// adopts them as its columns.
//
// The log is mirrored nowhere: its file's acknowledged prefix is decoded
// on demand — by a roll, or by the first read after an append — into
// normalized runs that are dropped again at the next append.  Nor does it
// keep scratch: a commit window is framed in a buffer borrowed from a pool
// for the window and given back after its write.
//
// # Recovery
//
// Open validates every segment and replays every WAL, reading before it
// writes: every shard is scanned and decoded first, and only once all have
// passed does Open create a missing shard directory or log or cut
// anything.  A torn WAL tail — the partial frame a crash mid-write leaves
// behind — is detected by the length/checksum framing and truncated away
// instead of failing the open, so a SIGKILLed collector restarts with
// every acknowledged sketch.
// Segment files are written atomically; Open scans each one's frames with
// the log's parser, verifying every checksum and decoding every record.
// The two kinds of file differ in one rule: a log's torn tail is what a
// crash mid-append left, and is cut off; a segment is sealed, so any
// damage to one is ErrSegmentCorrupt, reported rather than silently
// dropped.
//
// # Format v8 is converted, older ones refused
//
// Format v9 is the only one this version reads.  A directory whose
// manifest is marked v8 — the same runs in frames whose head is a 4-byte
// length and the checksum, each run naming its subset by a position count
// and each position, and writing the count of a lone record — is
// converted at Open, before any shard serves (v8.go, which holds v8's own
// frame and header parser and nothing else reads): every shard's segments
// and log are read first, writing nothing; then the manifest is marked
// v9-converting, each shard's records are merged into one v9 segment,
// newer than all of them, the segments they came from are removed, the
// log is replaced by an empty v9 one, and the manifest is marked v9.  Each
// step is a renamed file or a removal, so a crash leaves a directory the
// next Open carries the conversion on in.  Open refuses with
// ErrFormatTooOld, having written nothing in any shard, a directory whose
// manifest is marked v3, v4, v5, v6, v7, or v5-converting through
// v8-converting, and one holding data under a manifest with no marker
// (before v3).  The error names the versions that upgrade such a
// directory, which is opened once with each and then with this one.  A
// malformed frame or run header — a length head not in its fewest bytes, a
// shape past 30, which only a binary older than v5's conversion wrote, a
// frame's first run sharing the ids of none, a lone record's count written
// out — is corrupt in a segment and the end of the valid prefix in a log.
//
// The store keeps a subset's records of two lengths as runs of their own,
// deduplicated each on its own; which length a deployment serves is its
// engine's to decide (engine.AttachStore).
package store
