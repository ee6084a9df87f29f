package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// Log format v5, the only one written or read.  The log opens with an
// 8-byte magic and continues with one frame per appended group, the unit a
// commit window queues: the one record of an Append, or an AppendBatch's
// records for the shard.
//
//	4 bytes big-endian payload length
//	4 bytes big-endian checksum of the payload
//	payload: 4 bytes big-endian run count, then the group's runs whole
//	         (run.go): records stably grouped by subset and length, each
//	         group in
//	         arrival order under its subset's tag written once, its ids
//	         as an id column — a batch of users numbered as they enrolled
//	         ascends and costs a byte an id, a group that does not is
//	         written raw, and a lone record's frame is a byte longer than
//	         its 8-byte id made it — and its words as a segment block holds
//	         them, ℓ bits a key, ⌈count·ℓ/8⌉ bytes
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
// A log of another magic is refused at Open.  A whole, checksum-clean
// frame holding a run of whole words — a shape past 30, which an older
// binary wrote — was acknowledged, so it is no torn tail: replay refuses
// it with ErrFormatTooOld and cuts nothing.
var walMagic = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 5}

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

	// Reused across appends: the window's frames being assembled, and per
	// frame its runs' layout, each record's run within it, the records' ids
	// gathered run by run, and the (tag, length) → run index a frame needs
	// once it names a second subset or length.
	frame  []byte
	slots  []uint32
	layout []frameRun
	ids    []bitvec.UserID
	runOf  map[string]int
	keyBuf []byte
	// one and oneGroup are the single-record group and the single-group
	// window Append and AppendBatch wrap around appendWindow, keeping the
	// lone-writer path allocation-free; both are empty between calls.
	one      [1]sketch.Published
	oneGroup [1][]sketch.Published

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

// frameRun is one subset and length's share of the group being framed.
type frameRun struct {
	subset bitvec.Subset
	count  int
	shape  sketch.Shape // its sketches' length
	// Set once the group is counted and the frame laid out: where the run's
	// ids start among those gathered, how many are placed, and the writer of
	// its word column in the frame.
	at, placed int
	words      sketch.WordWriter
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
	w := &wal{path: path, fsync: fsync, m: m, runOf: make(map[string]int)}
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
// mid-append leaves behind.  A whole frame holding a run of whole words,
// which an older binary wrote, is no such violation: it was acknowledged,
// so replay fails with ErrFormatTooOld.
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
		return fmt.Errorf("store: %s is not a v5 log", w.path)
	}
	set := newRunSet()
	valid, records, err := scanLog(data, set)
	if err != nil {
		return fmt.Errorf("store: replaying %s: %w", w.path, err)
	}
	w.size, w.records = valid, records
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
// prefix is not an error: it is what a crash mid-append leaves.  A whole
// frame holding a run of whole words is: scanLog fails with
// ErrFormatTooOld, before its caller could cut anything.
// Nothing is allocated by a length field: the image
// bounds every frame, and the columns are sized by a first pass over the
// frames' run headers, each count checked against the bytes its columns
// occupy.
func scanLog(data []byte, set *runSet) (valid int64, records uint64, err error) {
	if !bytes.HasPrefix(data, walMagic[:]) {
		return 0, 0, nil
	}
	end, err := eachFrame(data, len(data), set.reserve)
	if errors.Is(err, ErrFormatTooOld) {
		return 0, 0, err
	}
	set.grow()
	end, _ = eachFrame(data, end, func(payload []byte) error {
		// A frame that was intact but holds no valid runs was fully written
		// yet malformed, which atomic appends never produce.  Still the end
		// of the valid prefix rather than a failed recovery.
		n, err := set.addFrame(payload)
		records += uint64(n)
		return err
	})
	return int64(end), records, nil
}

// eachFrame calls fn with the payload of each whole, checksum-clean frame
// of a log image after its magic, up to end, and returns where the first
// one that is neither — or that fn refuses, with fn's error — starts.
func eachFrame(data []byte, end int, fn func(payload []byte) error) (int, error) {
	off := len(walMagic)
	for end-off >= walFrameHeader {
		n := int64(binary.BigEndian.Uint32(data[off:]))
		if n > int64(end-off-walFrameHeader) {
			break
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+int(n)]
		if checksum(payload) != binary.BigEndian.Uint32(data[off+4:]) {
			break
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += walFrameHeader + int(n)
	}
	return off, nil
}

// eachRun calls fn with the header and the columns of each run of a frame
// payload: the id column, idsLen bytes, and the word column after it.
func eachRun(payload []byte, fn func(h runHeader, columns []byte, idsLen int) error) error {
	if len(payload) < 4 {
		return errors.New("frame truncated")
	}
	runs, rest := binary.BigEndian.Uint32(payload), payload[4:]
	for i := uint32(0); i < runs; i++ {
		h, err := parseRunHeader(rest)
		if err != nil {
			return err
		}
		idsLen, err := sketch.IDBlocksLen(rest[h.size:], h.count)
		if err != nil {
			return err
		}
		end := h.size + idsLen + wordsLen(h.count, h.shape)
		if end > len(rest) {
			return fmt.Errorf("run of %d records overruns its frame", h.count)
		}
		if err := fn(h, rest[h.size:end], idsLen); err != nil {
			return err
		}
		rest = rest[end:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d bytes after the frame's last run", len(rest))
	}
	return nil
}

// reserve notes how many records a frame will add to each run.  The frame
// is checksum-clean, so a run header of whole words in it (ErrFormatTooOld)
// is what an older binary wrote, not a torn append.
func (s *runSet) reserve(payload []byte) error {
	return eachRun(payload, func(h runHeader, _ []byte, _ int) error {
		r, err := s.runFor(h.tag, h.shape)
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
		r.ids = slices.Grow(r.ids, r.reserved)
		r.keys = sketch.MakeWords(r.shape, 0, r.keys.Len()+r.reserved).AppendWords(r.keys)
		r.reserved = 0
	}
}

// addFrame adds the runs of one frame payload to the set, all of them or
// — when the payload is malformed anywhere — none.
func (s *runSet) addFrame(payload []byte) (records int, err error) {
	s.marks = s.marks[:0]
	err = eachRun(payload, func(h runHeader, columns []byte, idsLen int) error {
		r, err := s.runFor(h.tag, h.shape)
		if err != nil {
			return err
		}
		s.marks = append(s.marks, runMark{r, len(r.ids)})
		records += h.count
		if r.keys, err = r.keys.AppendBitsFrom(columns[idsLen:], h.shape, h.count); err != nil {
			return err
		}
		r.ids, _, err = sketch.DecodeIDBlocks(r.ids, columns[:idsLen], h.count)
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
	valid, records, err := scanLog(data, set)
	if err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", w.path, err)
	}
	if valid != w.size || records != w.records {
		return nil, fmt.Errorf("store: decoding %s: %d of its %d acknowledged bytes (%d of %d records) are whole frames", w.path, valid, w.size, records, w.records)
	}
	if w.m != nil {
		w.m.logDecodes.Inc()
	}
	w.kept, w.keptOK = set.normalized(), true
	return w.kept, nil
}

// Append writes one record: a one-record window.
func (w *wal) Append(p sketch.Published) error {
	w.one[0] = p
	err := w.AppendBatch(w.one[:])
	w.one[0] = sketch.Published{}
	return err
}

// AppendBatch writes ps as one window.
func (w *wal) AppendBatch(ps []sketch.Published) error {
	w.oneGroup[0] = ps
	err := w.appendWindow(w.oneGroup[:])
	w.oneGroup[0] = nil
	return err
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

// windowBytes is about what the group ps adds to a commit window, for the
// committer's size cap: its columns with the ids raw and each sketch in
// the bytes of its Pack word, and a run header wherever the subset or the
// length changes (the frame writes a run's header once, codes ids that
// ascend and writes a key in ℓ bits, so this is an upper estimate).
func windowBytes(ps []sketch.Published) int {
	n := 0
	for i := range ps {
		n += 8 + (ps[i].S.Length+5+7)/8
		if i == 0 || !ps[i].Subset.Equal(ps[i-1].Subset) || ps[i].S.Length != ps[i-1].S.Length {
			n += runHeaderFixed + ps[i].Subset.TagLen()
		}
	}
	return n
}

// slotFor returns the index of the run of subset b at shape in the group
// being framed, starting the run if the pair is new to the group.
func (w *wal) slotFor(b bitvec.Subset, shape sketch.Shape) int {
	if len(w.layout) == 0 {
		w.layout = append(w.layout, frameRun{subset: b, shape: shape})
		return 0
	}
	if len(w.runOf) == 0 {
		// The group's second run: the index starts with its first.
		first := &w.layout[0]
		w.runOf[string(append(first.subset.AppendTag(w.keyBuf[:0]), byte(first.shape)))] = 0
	}
	w.keyBuf = append(b.AppendTag(w.keyBuf[:0]), byte(shape))
	if i, ok := w.runOf[string(w.keyBuf)]; ok {
		return i
	}
	w.layout = append(w.layout, frameRun{subset: b, shape: shape})
	w.runOf[string(w.keyBuf)] = len(w.layout) - 1
	return len(w.layout) - 1
}

// appendFrame appends to buf the frame of one appended group: its records
// stably grouped into runs of one subset and length each, in order of
// first appearance, and its records in arrival order.
func (w *wal) appendFrame(buf []byte, ps []sketch.Published) ([]byte, error) {
	w.layout, w.slots = w.layout[:0], w.slots[:0]
	if len(w.runOf) > 0 {
		clear(w.runOf)
	}
	cur := -1
	for i := range ps {
		if shape := sketch.Shape(ps[i].S.Length); cur < 0 || shape != w.layout[cur].shape || !ps[i].Subset.Equal(w.layout[cur].subset) {
			cur = w.slotFor(ps[i].Subset, shape)
		}
		w.layout[cur].count++
		w.slots = append(w.slots, uint32(cur))
	}

	// Gather the ids run by run — every run's place follows from the counts
	// — and lay the frame out: a run's header, its ids as an id column, room
	// for its words.  Then write each record's word into its run's column,
	// each run through a word writer of its own, in arrival order: the bytes
	// sketch.Words.AppendBits writes for the run's column.
	at := 0
	for i := range w.layout {
		w.layout[i].at, at = at, at+w.layout[i].count
	}
	w.ids = slices.Grow(w.ids[:0], len(ps))[:len(ps)]
	for i := range ps {
		r := &w.layout[w.slots[i]]
		w.ids[r.at+r.placed] = ps[i].ID
		r.placed++
	}
	frame := len(buf)
	buf = append(buf, make([]byte, walFrameHeader)...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(w.layout)))
	for i := range w.layout {
		r := &w.layout[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.subset.TagLen()))
		buf = r.subset.AppendTag(buf)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.count))
		buf = append(buf, byte(r.shape))
		buf = sketch.AppendIDBlocks(buf, w.ids[r.at:r.at+r.count])
		r.words = sketch.NewWordWriter(r.shape, len(buf))
		buf = append(buf, make([]byte, wordsLen(r.count, r.shape))...)
	}
	for i := range ps {
		w.layout[w.slots[i]].words.Put(buf, ps[i].S.Pack())
	}
	for i := range w.layout {
		w.layout[i].words.Flush(buf)
	}
	payload := buf[frame+walFrameHeader:]
	if len(payload) > maxFrameBytes {
		return buf, fmt.Errorf("store: appended group of %d bytes exceeds %d", len(payload), maxFrameBytes)
	}
	binary.BigEndian.PutUint32(buf[frame:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[frame+4:], checksum(payload))
	return buf, nil
}

// appendWindow writes a commit window — groups, each one appender's
// records — frame after frame with one write(2) and, in fsync mode, one
// fsync covering every record: the group-commit primitive that amortizes
// the durability cost over all writers parked on the window.  The window
// is all-or-nothing to its appenders: a failed write or fsync truncates
// the log back to its pre-window size, so no record the callers will be
// NACKed for can resurrect on replay.  The records have passed
// checkRecords.
func (w *wal) appendWindow(groups [][]sketch.Published) error {
	n := 0
	for _, ps := range groups {
		n += len(ps)
	}
	if n == 0 {
		return nil
	}
	if w.broken {
		if err := w.repair(); err != nil {
			return fmt.Errorf("%w: %v", ErrWALBroken, err)
		}
	}
	buf := w.frame[:0]
	for _, ps := range groups {
		if len(ps) == 0 {
			continue
		}
		var err error
		if buf, err = w.appendFrame(buf, ps); err != nil {
			return err
		}
	}
	w.frame = buf

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
