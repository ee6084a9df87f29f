package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// Segment format v9, the only one written or read (v8.go converts v8).  A
// segment is a shard's runs (run.go) sealed in the log's own frames
// (wal.go): sorted by (subset tag, length), ids ascending within each,
// every (user, subset, length) at most once —
//
//	8-byte magic "SKSEG\x00\x00\x09"
//	one frame per run, in (tag, length) order: uvarint payload length |
//	  4-byte checksum of the payload | payload: the run, its own ids
//	8-byte record count
//
// The fixed-width integers are big-endian, every checksum is checksum().  A run is
// split across frames, at a block of its id column, only where one frame
// would pass maxFrameBytes.  A record costs what it costs in the log — its
// id's share of an id block, a quarter of a byte where users were numbered
// as they enrolled, 8 and 1/64 where ids are hashes, and its ℓ bits of key
// — and a run its frame's head and its header: about 14 bytes beside a
// P10 run's 2¹⁴ records or more.  A segment frame holds one run, so no run of
// a segment shares its ids: a subset's ids are written once per subset,
// where the table holds one column for the subsets that hold the same
// users.
//
// Integrity.  Open scans every frame with the log's parser (eachFrame,
// eachRun), verifying every checksum and decoding every column, and
// requires the frames to end exactly at the footer with exactly its
// record count.  The run directory a reader uses is what that scan
// derives — nothing a reader trusts is stored beside the data, so it can
// be wrong about nothing.  A read takes a run's frames whole and decodes
// them again with the same parser.  Where the log takes a torn tail for
// what a crash mid-append left and cuts it off, a segment is written
// whole before it is renamed into place, so any damage to one —
// a flipped bit, a lost tail, a run out of order — is ErrSegmentCorrupt.
//
// A segment of another magic is corrupt: Open converts a v8 directory
// before these readers run (v8.go), and refuses older ones with
// ErrFormatTooOld.
//
// Segments are written to a temporary file, fsynced and renamed into
// place, so a segment either exists completely or not at all.
var segMagic = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 9}

// segFooterSize is the footer's: the record count.
const segFooterSize = 8

// ErrSegmentCorrupt is returned when a segment file fails validation.
var ErrSegmentCorrupt = errors.New("store: corrupt segment")

// segmentMeta tracks one on-disk segment.
type segmentMeta struct {
	seq   uint64
	path  string
	bytes int64
	// runs locates every run of the segment.  It is set at open or by the
	// writer, agrees with the file's data area by construction, and is
	// immutable, like the segment itself.
	runs segIndex
}

// segmentName renders the canonical file name for sequence number seq.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%08d.seg", seq) }

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segWriter assembles a segment image from runs added in tag order.
type segWriter struct {
	buf     []byte
	runs    segIndex
	records int
	// frameBytes bounds a frame's payload: maxFrameBytes.
	frameBytes int
}

// newSegWriter starts a segment whose image is about size bytes.
func newSegWriter(size int) *segWriter {
	return &segWriter{buf: append(make([]byte, 0, size), segMagic[:]...), frameBytes: maxFrameBytes}
}

// segmentSize is the size of the image of runs.
func segmentSize(runs []run) int {
	size := len(segMagic) + segFooterSize
	for _, r := range runs {
		size += maxFrameHead + runHeaderSize(r.Subset, r.Len()) + r.IDs.Bytes() + wordsLen(r.Len(), r.Keys.Shape())
	}
	return size
}

// add appends a run: ids strictly ascending, its (tag, length) above the
// last one's.  It is a frame, or where one would pass the writer's bound,
// frames of whole id blocks.
func (w *segWriter) add(r run) {
	shape := r.Keys.Shape()
	start := int64(len(w.buf))
	for lo, k := 0, 0; lo < r.Len(); {
		hi, size := lo, runHeaderSize(r.Subset, r.Len())
		for b := k; hi < r.Len(); b++ {
			m := min(r.Len()-hi, sketch.IDBlockLen)
			more := len(r.IDs.BlockBytes(b)) + wordsLen(m, shape)
			if hi > lo && size+more > w.frameBytes {
				break
			}
			hi, size = hi+m, size+more
		}
		buf, frame := openFrame(w.buf)
		buf = appendRunHeader(buf, r.Subset, hi-lo, shape, false)
		for ; k*sketch.IDBlockLen < hi; k++ {
			buf = append(buf, r.IDs.BlockBytes(k)...)
		}
		buf = r.Keys.Slice(lo, hi).AppendBits(buf)
		w.buf, lo = closeFrame(buf, frame), hi
	}
	if r.Len() > 0 {
		w.runs = append(w.runs, segRun{tag: r.tag, subset: r.Subset, count: r.Len(), shape: shape, start: start, end: int64(len(w.buf))})
		w.records += r.Len()
	}
}

// finish completes the image and returns it with the run directory
// describing it, so a roll or compaction never re-parses its own output.
func (w *segWriter) finish() ([]byte, segIndex) {
	return binary.BigEndian.AppendUint64(w.buf, uint64(w.records)), w.runs
}

// encodeSegment renders normalized runs as a segment image.
func encodeSegment(runs []run) ([]byte, segIndex) {
	w := newSegWriter(segmentSize(runs))
	for _, r := range runs {
		w.add(r)
	}
	return w.finish()
}

// writeSegment atomically writes a finished image as segment seq in dir
// and returns its metadata.
func writeSegment(dir string, seq uint64, image []byte, runs segIndex) (segmentMeta, error) {
	final := filepath.Join(dir, segmentName(seq))
	if err := writeFileAtomic(final, image); err != nil {
		return segmentMeta{}, err
	}
	if err := syncDir(dir); err != nil {
		return segmentMeta{}, err
	}
	return segmentMeta{seq: seq, path: final, bytes: int64(len(image)), runs: runs}, nil
}

// renameFile and removeFile are os.Rename and os.Remove, which a test
// makes fail to stand in for a crash between a conversion's steps.
var renameFile, removeFile = os.Rename, os.Remove

// writeFileAtomic writes data to path through a fsynced temporary file and
// a rename, so a crash (or power loss) leaves the old file or the new one,
// never a partial or empty one.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renameFile(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// scanSegment validates a segment image — trusting nothing but the bytes
// it is reading — and returns the run directory they imply.  Every record
// is decoded (decodeRun), so a segment Open accepted holds only
// well-formed, checksum-clean, correctly ordered records.
func scanSegment(data []byte, path string) (segIndex, error) {
	corrupt := func(format string, args ...any) (segIndex, error) {
		return nil, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < len(segMagic)+segFooterSize {
		return corrupt("is %d bytes", len(data))
	}
	if [8]byte(data[:8]) != segMagic {
		return corrupt("has magic %q, not v9's", data[:8])
	}
	var runs segIndex
	// The run being scanned: its ids are gathered only to hold each frame's
	// against the one before, and cost their coded bytes, which the file
	// bounds; the words are only checked, every frame's on the same room.
	// name is its subset's in the frames.
	var ids sketch.IDBuilder
	var keys sketch.Words
	var name []byte
	total := 0
	footer := len(data) - segFooterSize
	end, err := eachFrame(data, len(segMagic), footer, func(at int, payload []byte) error {
		h, idCol, words, err := oneRun(payload)
		if err != nil {
			return err
		}
		if n := len(runs); n == 0 || !bytes.Equal(h.name, name) || h.shape != runs[n-1].shape {
			subset, _, err := bitvec.ParseCompact(h.name)
			if err != nil {
				return err
			}
			tag := subset.Key()
			if n > 0 && (tag < runs[n-1].tag || tag == runs[n-1].tag && h.shape < runs[n-1].shape) {
				return errors.New("run out of subset order")
			}
			runs, ids, name = append(runs, segRun{tag: tag, subset: subset, shape: h.shape, start: int64(at)}), sketch.IDBuilder{}, h.name
		}
		// Otherwise the next frame of a run past maxFrameBytes.
		r := &runs[len(runs)-1]
		r.count, r.end = r.count+h.count, int64(at+frameHeadLen(len(payload))+len(payload))
		total += h.count
		keys, err = decodeRun(h, idCol, words, &ids, keys.Reset())
		return err
	})
	if err != nil {
		return corrupt("frame at offset %d: %v", end, err)
	}
	if end != footer {
		return corrupt("frame at offset %d is cut short or fails its checksum", end)
	}
	if count := binary.BigEndian.Uint64(data[footer:]); uint64(total) != count {
		return corrupt("holds %d records, its footer says %d", total, count)
	}
	return runs, nil
}

// oneRun parses a segment frame's payload, which holds one run.
func oneRun(payload []byte) (h runHeader, ids, words []byte, err error) {
	n := 0
	err = eachRun(payload, func(rh runHeader, ri, rw []byte) error {
		if n++; n > 1 {
			return errors.New("a segment frame holds one run")
		}
		h, ids, words = rh, ri, rw
		return nil
	})
	return h, ids, words, err
}

// decodeRun appends the columns of run h — its id column ids and its word
// column words, input — to idb and keys, checking every id block's coding
// and that the ids ascend from what idb holds, and every word's shape and
// pad bits.  On an error what was appended is undefined and the caller
// drops both columns.
func decodeRun(h runHeader, ids, words []byte, idb *sketch.IDBuilder, keys sketch.Words) (sketch.Words, error) {
	keys, err := keys.AppendBitsFrom(words, h.shape, h.count)
	if err != nil {
		return keys, err
	}
	for at, off := 0, 0; at < h.count; at += sketch.IDBlockLen {
		size, err := idb.AppendBlock(ids[off:], min(h.count-at, sketch.IDBlockLen))
		if err != nil {
			return keys, err
		}
		off += size
	}
	return keys, nil
}

// openSegment reads and validates the segment at path and returns its run
// directory.
func openSegment(path string) (segIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return scanSegment(data, path)
}

// listSegments scans dir for segment files, sorted by sequence number,
// and for the .tmp files a crash mid-flush left, which it leaves to its
// caller to remove.
func listSegments(dir string) (segs []segmentMeta, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			tmps = append(tmps, filepath.Join(dir, e.Name()))
			continue
		}
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, segmentMeta{seq: seq, path: filepath.Join(dir, e.Name()), bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, tmps, nil
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
