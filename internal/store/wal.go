package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// The log (format v8) opens with an 8-byte magic and continues with one
// frame per appended group, the unit a commit window queues: the one
// record of an Append, or an AppendBatch's records for the shard.  A
// segment holds the same frames (segment.go).
//
//	4 bytes big-endian payload length
//	4 bytes big-endian checksum of the payload
//	payload: the group's runs whole (run.go), back to back to its end: one
//	         run per maximal stretch of the group's records of one subset
//	         and length, in arrival order, under its subset's compact name,
//	         its ids as an id column — the engine hands a batch over subset
//	         by subset, ids ascending, so a stretch is a whole subset and
//	         users numbered as they enrolled cost a bit or two an id; ids
//	         that do not ascend are written raw — or, where they are the
//	         previous run's of the frame one for one, as they are when a
//	         batch's users sketched every subset, not at all; and its
//	         words, ℓ bits a key, ⌈count·ℓ/8⌉ bytes.  A lone P10 record's
//	         frame is 32 bytes: 8 of head, 13 of run header, a 9-byte id
//	         block and 2 bytes of key.  A frame may name a subset and length
//	         in several runs; replay appends them in order, so the newest of
//	         a repeated record is still the last
//
// A commit window is its groups' frames back to back: one write(2), one
// fsync, one outcome for every record in it.  The frame, not the window,
// is the unit on disk so that a log's bytes are a function of what was
// appended and not of which appends happened to share a window — sizes
// repeat from run to run.  A crash mid-write tears at most one frame,
// which replay cuts off whole together with whatever followed it; whole
// frames of the torn window stay, as whole records of a torn batch always
// did — nothing of that window was acknowledged, and nothing says an
// unacknowledged record must be lost.
//
// A log of another magic is refused at Open; a v7 one is converted before
// (v7.go).
var walMagic = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 8}

const (
	walFrameHeader = 8 // payload length + checksum
	// maxFrameBytes bounds one frame's payload well inside its 32-bit
	// length; only a single enormous AppendBatch group could come near it.
	maxFrameBytes = 1 << 30
)

// maxRecordSize bounds one record, which in practice bounds its subset
// tag: an id and a sketch's key are at most 8 bytes and 30 bits.
const maxRecordSize = wire.MaxFrameSize

var (
	// ErrRecordTooLarge is returned when asked to append a record exceeding
	// maxRecordSize.
	ErrRecordTooLarge = errors.New("store: record exceeds maximum size")
	// ErrInvalidSketch is returned when asked to append a record whose
	// sketch is not sketch.Sketch.Valid: a word column has no form for it.
	ErrInvalidSketch = errors.New("store: invalid sketch")
	// ErrWALBroken is returned by appends after an unrecoverable write error.
	ErrWALBroken = errors.New("store: wal broken by an unrecoverable write error")
)

// wal is one shard's write-ahead log.  A window goes straight to the file
// with a single write(2) — no user-space buffering — so its records are in
// the kernel (and survive SIGKILL) the moment the append returns; an
// optional fsync per window extends the guarantee to machine crashes.
//
// The file is the only copy of the log's records.  log[0:size) is exactly
// the acknowledged prefix — size never counts a window whose append
// returned an error, and a failed write is truncated back to it — so a
// roll or a read decodes that prefix on demand (runs) and nothing
// per-record stays on the heap between operations.
type wal struct {
	f       *os.File
	path    string
	size    int64  // bytes of the acknowledged prefix, magic included
	records uint64 // records appended since the log was last empty
	found   int64  // the file's length when loadWAL read it
	fsync   bool

	// kept holds the normalized runs of log[0:size) from the last decode —
	// replay's at open, or the first read's since — until the next append
	// and no longer, so a quiet store answers every read from one decode.
	kept   []run
	keptOK bool

	// m, when non-nil, records append/fsync latency; see metrics.go.
	m *metrics
	// broken is set when a failed write could not be rolled back: the
	// file may hold bytes past size that a later window would bury
	// mid-file, where replay would stop short of acknowledged windows
	// behind them.  While set, an append first cuts the file back to size;
	// only if that repair also fails does the append itself fail.
	broken bool
}

// openWAL opens (creating if needed) the log at path, replays it — every
// whole window is kept, a torn tail is truncated away in place — and
// positions it for appending: loadWAL, then ready.
func openWAL(path string, fsync bool, m *metrics) (*wal, error) {
	w, err := loadWAL(path, fsync, m)
	if err != nil {
		return nil, err
	}
	if err := w.ready(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// loadWAL is the read half of opening the log at path: it reads the file,
// if there is one, and keeps the runs of its valid prefix, writing
// nothing.  Creating a missing log, writing a new one's magic and cutting a
// torn tail are ready's.
func loadWAL(path string, fsync bool, m *metrics) (*wal, error) {
	w := &wal{path: path, fsync: fsync, m: m}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return w, nil
	}
	if err != nil {
		return nil, err
	}
	w.f = f
	if err := w.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// replay reads the file as the last process left it.  Any framing
// violation — a short header, a length past the end of the file, a
// checksum mismatch, a payload that is not a sequence of runs — marks the
// end of the valid prefix: the windows before it are kept and everything
// from it on is what ready cuts off, which is exactly the state a crash
// mid-append leaves behind.
func (w *wal) replay() error {
	info, err := w.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	data, err := w.readLog(size)
	if err != nil {
		return fmt.Errorf("store: replaying %s: %w", w.path, err)
	}
	w.found = size
	switch {
	case size < int64(len(walMagic)) && bytes.HasPrefix(walMagic[:], data):
		// A new log, or one whose creation a crash interrupted: size
		// stays 0 and ready writes the magic.
		return nil
	case !bytes.HasPrefix(data, walMagic[:]):
		return fmt.Errorf("store: %s is not a v8 log", w.path)
	}
	set := newRunSet()
	w.size, w.records = scanLog(data, set)
	w.kept, w.keptOK = set.normalized(), true
	return nil
}

// ready is the write half of opening the log: it creates the file if
// loadWAL found none, writes the magic of a new log and cuts a torn tail
// back to the valid prefix.
func (w *wal) ready() error {
	if w.f == nil {
		f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		w.f = f
	}
	if w.size == 0 {
		return w.create()
	}
	if w.found != w.size {
		if err := w.f.Truncate(w.size); err != nil {
			return fmt.Errorf("store: truncating torn wal tail of %s: %w", w.path, err)
		}
	}
	return nil
}

// create writes the magic of a new log.  Nothing was ever acknowledged
// from a file that lacks it, so a failure here only fails the open.
func (w *wal) create() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Write(walMagic[:]); err != nil {
		return err
	}
	w.size, w.records = int64(len(walMagic)), 0
	w.kept, w.keptOK = nil, true
	return nil
}

// readLog reads the first size bytes of the log.
func (w *wal) readLog(size int64) ([]byte, error) {
	data := make([]byte, size)
	if _, err := w.f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	return data, nil
}

// scanLog decodes a log image into set and returns the length of its
// valid prefix — the magic and every whole, checksum-clean, well-formed
// frame after it — and the records that prefix holds.  What follows the
// prefix is not an error: it is what a crash mid-append leaves.  Nothing
// is allocated by a length field: the image bounds every frame, and the
// columns are sized by a first pass over the frames' run headers, each
// count checked against the bytes its columns occupy.
func scanLog(data []byte, set *runSet) (valid int64, records uint64) {
	if !bytes.HasPrefix(data, walMagic[:]) {
		return 0, 0
	}
	end, _ := eachFrame(data, len(walMagic), len(data), func(_ int, payload []byte) error { return set.reserve(payload) })
	set.grow()
	end, _ = eachFrame(data, len(walMagic), end, func(_ int, payload []byte) error {
		// A frame that was intact but holds no valid runs was fully written
		// yet malformed, which atomic appends never produce.  Still the end
		// of the valid prefix rather than a failed recovery.
		n, err := set.addFrame(payload)
		records += uint64(n)
		return err
	})
	return int64(end), records
}

// eachFrame calls fn with the offset and the payload of each whole,
// checksum-clean frame of data from off up to end, and returns where the
// first one that is neither — or that fn refuses, with fn's error —
// starts: end, if every frame is whole and accepted.
func eachFrame(data []byte, off, end int, fn func(at int, payload []byte) error) (int, error) {
	for end-off >= walFrameHeader {
		n := int64(binary.BigEndian.Uint32(data[off:]))
		if n > int64(end-off-walFrameHeader) {
			break
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+int(n)]
		if checksum(payload) != binary.BigEndian.Uint32(data[off+4:]) {
			break
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off += walFrameHeader + int(n)
	}
	return off, nil
}

// eachRun calls fn with the header and the columns of each run of a frame
// payload: its id column — for a run sharing its ids, the run's before it
// — and its word column.  A frame holds at least one run, and its first
// shares no ids.
func eachRun(payload []byte, fn func(h runHeader, ids, words []byte) error) error {
	if len(payload) == 0 {
		return errors.New("a frame holds no run")
	}
	var ids []byte
	for rest, prev := payload, 0; len(rest) > 0; {
		h, err := parseRunHeader(rest, prev)
		if err != nil {
			return err
		}
		at := h.size
		if !h.shared {
			n, err := sketch.IDBlocksLen(rest[at:], h.count)
			if err != nil {
				return err
			}
			ids, at = rest[at:at+n], at+n
		}
		end := at + wordsLen(h.count, h.shape)
		if end > len(rest) {
			return fmt.Errorf("run of %d records overruns its frame", h.count)
		}
		if err := fn(h, ids, rest[at:end]); err != nil {
			return err
		}
		rest, prev = rest[end:], h.count
	}
	return nil
}

// reserve notes how many records a frame will add to each run.
func (s *runSet) reserve(payload []byte) error {
	return eachRun(payload, func(h runHeader, _, _ []byte) error {
		r, err := s.runFor(h.name, h.shape)
		if err != nil {
			return err
		}
		r.reserved += h.count
		return nil
	})
}

// grow makes room in every run for the records reserved for it.
func (s *runSet) grow() {
	for _, r := range s.byKey {
		// A make, not slices.Grow, whose append of a fresh slice allocates
		// it twice under -race.
		r.ids = append(make([]bitvec.UserID, 0, len(r.ids)+r.reserved), r.ids...)
		r.keys = sketch.MakeWords(r.shape, 0, r.keys.Len()+r.reserved).AppendWords(r.keys)
		r.reserved = 0
	}
}

// addFrame adds the runs of one frame payload to the set, all of them or
// — when the payload is malformed anywhere — none.
func (s *runSet) addFrame(payload []byte) (records int, err error) {
	s.marks = s.marks[:0]
	err = eachRun(payload, func(h runHeader, ids, words []byte) error {
		r, err := s.runFor(h.name, h.shape)
		if err != nil {
			return err
		}
		s.marks = append(s.marks, runMark{r, len(r.ids)})
		records += h.count
		if r.keys, err = r.keys.AppendBitsFrom(words, h.shape, h.count); err != nil {
			return err
		}
		r.ids, _, err = sketch.DecodeIDBlocks(r.ids, ids, h.count)
		return err
	})
	if err != nil {
		for i := len(s.marks) - 1; i >= 0; i-- {
			m := s.marks[i]
			m.r.ids, m.r.keys = m.r.ids[:m.n], m.r.keys.Slice(0, m.n)
		}
		return 0, err
	}
	return records, nil
}

// runs returns the log's records as normalized runs: one per subset and
// length in that order, ids ascending, the newest append winning a
// repeated (user, subset, length).  It decodes log[0:size) unless the runs of the last decode
// are still kept.  The runs are shared and immutable; they hold exactly
// the acknowledged records — bytes a failed append left past size are
// never read.
func (w *wal) runs() ([]run, error) {
	if w.keptOK {
		return w.kept, nil
	}
	data, err := w.readLog(w.size)
	if err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", w.path, err)
	}
	set := newRunSet()
	if valid, records := scanLog(data, set); valid != w.size || records != w.records {
		return nil, fmt.Errorf("store: decoding %s: %d of its %d acknowledged bytes (%d of %d records) are whole frames", w.path, valid, w.size, records, w.records)
	}
	if w.m != nil {
		w.m.logDecodes.Inc()
	}
	w.kept, w.keptOK = set.normalized(), true
	return w.kept, nil
}

// AppendBatch writes ps as one window.
func (w *wal) AppendBatch(ps []sketch.Published) error {
	return w.appendWindow([]commitWaiter{{ps: ps}})
}

// checkRecords refuses records the log has no form for.  Every append
// passes through it before it reaches a log or joins a commit window, so
// one oversized or malformed record fails its own group, never a cohort.
func checkRecords(ps []sketch.Published) error {
	for i := range ps {
		if n := wire.PublishedEncodedLen(ps[i]); n > maxRecordSize {
			return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, n)
		}
		if !ps[i].S.Valid() {
			return fmt.Errorf("%w: %v", ErrInvalidSketch, ps[i].S)
		}
	}
	return nil
}

// windowBytes bounds what the group ps adds to a commit window, for the
// committer's size cap: its frame's head, and for each run appendFrame
// writes its header, at most a width byte an id block and 8 bytes an id —
// none where it shares the ids of the run before it — and its words.
func windowBytes(ps []sketch.Published) int {
	n := walFrameHeader
	var prev []sketch.Published
	for len(ps) > 0 {
		k := stretch(ps)
		shape := sketch.Shape(ps[0].S.Length)
		n += runHeaderSize(ps[0].Subset, k) + wordsLen(k, shape)
		if !sameIDs(prev, ps[:k]) {
			n += (k+sketch.IDBlockLen-1)/sketch.IDBlockLen + 8*k
		}
		prev, ps = ps[:k], ps[k:]
	}
	return n
}

// stretch returns how many records at the front of ps make one run: those
// of the first one's subset and length.
func stretch(ps []sketch.Published) int {
	n := 1
	for n < len(ps) && ps[n].S.Length == ps[0].S.Length && ps[n].Subset.Equal(ps[0].Subset) {
		n++
	}
	return n
}

// sameIDs reports whether the runs a and b hold the same ids in the same
// order.
func sameIDs(a, b []sketch.Published) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// appendFrame appends to buf the frame of one appended group: a run for
// each maximal stretch of its records of one subset and length, sharing
// the ids of the run before it where they are the same.
func appendFrame(buf []byte, ps []sketch.Published) ([]byte, error) {
	buf, frame := openFrame(buf)
	var prev []sketch.Published
	for len(ps) > 0 {
		n := stretch(ps)
		buf = appendFrameRun(buf, ps[:n], sameIDs(prev, ps[:n]))
		prev, ps = ps[:n], ps[n:]
	}
	if n := len(buf) - frame - walFrameHeader; n > maxFrameBytes {
		return buf, fmt.Errorf("store: appended group of %d bytes exceeds %d", n, maxFrameBytes)
	}
	closeFrame(buf, frame)
	return buf, nil
}

// openFrame appends the head of a frame — its length and checksum, which
// closeFrame fills in — and returns where the frame starts.
func openFrame(buf []byte) ([]byte, int) {
	return append(buf, make([]byte, walFrameHeader)...), len(buf)
}

// closeFrame fills in the head of the frame at buf[frame:], which ends
// buf.
func closeFrame(buf []byte, frame int) {
	payload := buf[frame+walFrameHeader:]
	binary.BigEndian.PutUint32(buf[frame:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[frame+4:], checksum(payload))
}

// appendFrameRun appends the run of ps, records of one subset and length:
// its header, its ids as an id column, a block at a time, unless shared
// says they are the run's before it, and its words.
func appendFrameRun(buf []byte, ps []sketch.Published, shared bool) []byte {
	shape := sketch.Shape(ps[0].S.Length)
	buf = appendRunHeader(buf, ps[0].Subset, len(ps), shape, shared)
	var ids [sketch.IDBlockLen]bitvec.UserID
	for at := 0; !shared && at < len(ps); at += sketch.IDBlockLen {
		block := ids[:min(len(ps)-at, sketch.IDBlockLen)]
		for i := range block {
			block[i] = ps[at+i].ID
		}
		buf = sketch.AppendIDBlocks(buf, block)
	}
	words := sketch.NewWordWriter(shape, len(buf))
	buf = append(buf, make([]byte, wordsLen(len(ps), shape))...)
	for i := range ps {
		words.Put(buf, ps[i].S.Pack())
	}
	words.Flush(buf)
	return buf
}

// framePool lends each commit window the buffer its frames are assembled
// in, so that no log keeps one between windows.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// appendWindow writes a commit window — its waiters' groups, each one
// appender's records — frame after frame with one write(2) and, in fsync mode, one
// fsync covering every record: the group-commit primitive that amortizes
// the durability cost over all writers parked on the window.  The window
// is all-or-nothing to its appenders: a failed write or fsync truncates
// the log back to its pre-window size, so no record the callers will be
// NACKed for can resurrect on replay.  The records have passed
// checkRecords.
func (w *wal) appendWindow(window []commitWaiter) error {
	n := 0
	for _, c := range window {
		n += len(c.ps)
	}
	if n == 0 {
		return nil
	}
	if w.broken {
		if err := w.repair(); err != nil {
			return fmt.Errorf("%w: %v", ErrWALBroken, err)
		}
	}
	pooled := framePool.Get().(*[]byte)
	buf := (*pooled)[:0]
	defer func() {
		// A buffer past a full window's size is left to the collector.
		if cap(buf) <= commitBytes {
			*pooled = buf[:0]
			framePool.Put(pooled)
		}
	}()
	for _, c := range window {
		if len(c.ps) == 0 {
			continue
		}
		var err error
		if buf, err = appendFrame(buf, c.ps); err != nil {
			return err
		}
	}

	start := now(w.m)
	if n, err := w.f.Write(buf); err != nil {
		// A partial write leaves torn bytes that are NOT at the tail once
		// a later window lands after them — replay would then stop short of
		// acknowledged windows.  Cut the file back to the last good window;
		// if even that fails, refuse all further appends.
		if n > 0 {
			if terr := w.f.Truncate(w.size); terr != nil {
				w.broken = true
			}
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	if w.m != nil {
		w.m.appendLatency.ObserveSince(start)
	}
	if w.fsync {
		syncStart := now(w.m)
		if err := w.f.Sync(); err != nil {
			// The write reached the kernel but stable storage is in doubt
			// and fsync error semantics make retrying unsafe.  Roll the
			// whole window back out so no NACKed publish can resurrect.
			if terr := w.f.Truncate(w.size); terr != nil {
				w.broken = true
			}
			return fmt.Errorf("store: wal fsync: %w", err)
		}
		if w.m != nil {
			w.m.fsyncLatency.ObserveSince(syncStart)
		}
	}
	w.size += int64(len(buf))
	w.records += uint64(n)
	w.kept, w.keptOK = nil, false
	return nil
}

// repair cuts a broken log back to its acknowledged prefix.  w.size
// never counts a window whose append returned an error, so truncating
// to it removes both torn bytes and a fully-written window whose fsync
// failed after the write — a publish the caller was told failed must
// not resurrect (replaying the file instead would count such a
// checksum-clean window back in).  The condition that made the original
// rollback fail (typically a full disk) is often transient, so a later
// append gets one repair attempt instead of the shard being down until
// restart.  A process that dies while broken loses this protection:
// restart replay keeps every whole window, so a NACKed publish can
// resurrect across a crash — the fsync-failure ambiguity every WAL
// without revocation records has.
func (w *wal) repair() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.broken = false
	return nil
}

// Sync flushes the log to stable storage.
func (w *wal) Sync() error { return w.f.Sync() }

// Close closes the underlying file without syncing.
func (w *wal) Close() error { return w.f.Close() }

// Truncate empties the log — down to its magic — after its records were
// rolled into a segment.
func (w *wal) Truncate() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	w.size, w.records = int64(len(walMagic)), 0
	w.kept, w.keptOK = nil, true
	if err := w.f.Sync(); err != nil {
		return err
	}
	// The log is provably empty and clean now, so any earlier
	// unrecoverable-write state no longer applies.
	w.broken = false
	return nil
}
