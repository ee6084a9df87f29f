package store

import (
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

// Segment format v5, the only one written or read.  A segment is a
// shard's runs (run.go) in (subset tag, length) order, ids ascending
// within each, every (user, subset, length) at most once:
//
//	16 byte header: magic "SKSEG\x00\x00\x05" | 8-byte record count
//	data area, per run:
//	  run header (tag length, tag, count, word shape) | 4-byte checksum
//	  of the header | the run's columns cut into blocks of segBlockRecords
//	  records (the last one shorter): the block of the id column (a width
//	  byte, a first id, differences — sketch/ids.go), the records' words
//	  at the run's shape, 4-byte checksum of the block
//	12 byte footer: 4-byte checksum of nothing | 8-byte data-area end
//
// All integers are big-endian, every checksum is checksum().  A record
// costs its id's share of a block — a little over a byte where users were
// numbered as they enrolled, 8 and 1/64 where ids are hashes — and its
// sketch in the bits memory holds it in, the ℓ bits of its key, so a
// block of 64 of the 9-bit sketches of a million-user deployment holds 72
// bytes of words, a copy of the column's bits (sketch.Words.AppendBits and
// AppendBitsFrom); block sums add 1/16 byte, and a subset's tag is paid
// once per segment.  A block's size follows from its width byte and the
// run's shape, so blocks are found by walking them, never by arithmetic on
// a record number.
//
// Integrity.  The data area carries the records and describes itself:
// Open walks it run by run, verifying every checksum and that the walk
// ends exactly where the footer says the data area does with exactly the
// header's record count, and fails loudly otherwise.  The run directory,
// the sparse id index and the block offsets a reader uses are what that
// walk derives — nothing a reader trusts is stored beside the data, so it
// can be wrong about nothing.  Reads verify the checksum of every block
// they touch.  Whatever lies between the data area's end and the footer is
// skipped; a segment written now has nothing there.
//
// A segment of an older format (v3, v4), or a v5 one holding a run of
// whole words, is rewritten before its shard serves (convertShard), so
// these readers meet v5 runs of one length alone.
//
// Segments are written to a temporary file, fsynced and renamed into
// place, so a segment either exists completely or not at all.
var segMagic = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 5}

const (
	segHeaderSize = 16 // magic + record count
	segFooterSize = 12 // checksum of the empty section + data-area end
	// segBlockRecords is how many records share a checksum and a sparse
	// index entry: a point lookup reads one block (about 150 bytes at
	// ℓ = 9 where ids are dense: 72 of ids, 72 of words, 4 of checksum).
	segBlockRecords = sketch.IDBlockLen
)

// ErrSegmentCorrupt is returned when a segment file fails validation.
var ErrSegmentCorrupt = errors.New("store: corrupt segment")

// segmentMeta tracks one on-disk segment.
type segmentMeta struct {
	seq   uint64
	path  string
	bytes int64
	// idx locates every run and block of the segment.  It is set at open
	// or by the writer, agrees with the file's data area by construction,
	// and is immutable, like the segment itself.
	idx *segIndex
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
	idx     *segIndex
	records int
}

// newSegWriter starts a segment whose image is about size bytes.
func newSegWriter(size int) *segWriter {
	w := &segWriter{buf: make([]byte, segHeaderSize, size), idx: &segIndex{}}
	copy(w.buf, segMagic[:])
	return w
}

// segmentSize is the size of the image of runs.
func segmentSize(runs []run) int {
	size := segHeaderSize + segFooterSize
	for _, r := range runs {
		size += runHeaderFixed + len(r.tag) + 4 + r.IDs.Bytes() + wordsLen(r.Len(), r.Keys.Shape()) + 4*r.IDs.Blocks()
	}
	return size
}

// add appends a run: ids strictly ascending, its (tag, length) above the
// last one's.
func (w *segWriter) add(r run) {
	if r.Len() == 0 {
		return
	}
	shape := r.Keys.Shape()
	header := len(w.buf)
	w.buf = appendRunHeader(w.buf, r.tag, r.Len(), shape)
	w.buf = binary.BigEndian.AppendUint32(w.buf, checksum(w.buf[header:]))
	w.idx.runs = append(w.idx.runs, segRun{
		tag: r.tag, subset: r.Subset, count: r.Len(), shape: shape,
		first: w.records, block0: len(w.idx.firstIDs),
	})
	for k, blocks := 0, r.IDs.Blocks(); k < blocks; k++ {
		at := k * segBlockRecords
		w.idx.firstIDs = append(w.idx.firstIDs, r.IDs.BlockFirst(k))
		w.idx.blockOffs = append(w.idx.blockOffs, int64(len(w.buf)))
		block := len(w.buf)
		w.buf = append(w.buf, r.IDs.BlockBytes(k)...)
		w.buf = r.Keys.Slice(at, min(at+segBlockRecords, r.Len())).AppendBits(w.buf)
		w.buf = binary.BigEndian.AppendUint32(w.buf, checksum(w.buf[block:]))
	}
	w.idx.runs[len(w.idx.runs)-1].end = int64(len(w.buf))
	w.records += r.Len()
}

// finish completes the image and returns it with the index describing it,
// so a roll or compaction never re-parses its own output.
func (w *segWriter) finish() ([]byte, *segIndex) {
	binary.BigEndian.PutUint64(w.buf[len(segMagic):], uint64(w.records))
	end := len(w.buf)
	w.buf = binary.BigEndian.AppendUint32(w.buf, checksum(nil))
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(end))
	return w.buf, w.idx
}

// encodeSegment renders normalized runs as a segment image.
func encodeSegment(runs []run) ([]byte, *segIndex) {
	w := newSegWriter(segmentSize(runs))
	for _, r := range runs {
		w.add(r)
	}
	return w.finish()
}

// writeSegment atomically writes a finished image as segment seq in dir
// and returns its metadata.
func writeSegment(dir string, seq uint64, image []byte, idx *segIndex) (segmentMeta, error) {
	final := filepath.Join(dir, segmentName(seq))
	if err := writeFileAtomic(final, image); err != nil {
		return segmentMeta{}, err
	}
	if err := syncDir(dir); err != nil {
		return segmentMeta{}, err
	}
	return segmentMeta{seq: seq, path: final, bytes: int64(len(image)), idx: idx}, nil
}

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
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if afterRename != nil {
		return afterRename(path)
	}
	return nil
}

// afterRename, when set, is called after each rename writeFileAtomic
// makes, and an error it returns is writeFileAtomic's: a test stops a
// format conversion there, at each of its steps in turn, as a crash would.
var afterRename func(path string) error

// decodeBlock appends the block of m records at the front of src — input
// — to ids and keys and returns its size and first id.  It verifies the
// block's checksum, that its words are what a column of the run's shape
// holds of valid sketches and that the ids ascend from what ids already
// holds; on an error what was appended is undefined and the caller drops
// both columns.
func decodeBlock(src []byte, m int, shape sketch.Shape, ids *sketch.IDBuilder, keys sketch.Words) (int, bitvec.UserID, sketch.Words, error) {
	idsLen, err := sketch.IDBlocksLen(src, m)
	if err != nil {
		return 0, 0, keys, err
	}
	end := idsLen + wordsLen(m, shape)
	if len(src) < end+4 {
		return 0, 0, keys, fmt.Errorf("block of %d bytes in %d", end+4, len(src))
	}
	if checksum(src[:end]) != binary.BigEndian.Uint32(src[end:]) {
		return 0, 0, keys, errors.New("block fails checksum")
	}
	if keys, err = keys.AppendBitsFrom(src[idsLen:end], shape, m); err != nil {
		return 0, 0, keys, err
	}
	_, first, err := ids.AppendBlock(src[:idsLen], m)
	return end + 4, first, keys, err
}

// walkSegment validates an image's data area — trusting nothing but the
// bytes it is reading — and returns the index the area implies.  Every
// record is decoded, so a segment Open accepted holds only well-formed,
// checksum-clean, correctly ordered records.  A checksum-clean run header
// of whole words — an older binary's column that met two lengths — fails
// it with errWholeWords, for Open to convert the shard.
func walkSegment(data []byte, path string) (*segIndex, error) {
	corrupt := func(format string, args ...any) (*segIndex, error) {
		return nil, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < segHeaderSize+segFooterSize {
		return corrupt("is %d bytes", len(data))
	}
	if [8]byte(data[:8]) != segMagic {
		return corrupt("has magic %q, not v5's", data[:8])
	}
	idx := &segIndex{}
	// The record count and the data area's end cross-check each other
	// through the walk: it must reach the end exactly, with exactly the
	// count.  Whatever lies between the end and the footer is skipped.
	count := binary.BigEndian.Uint64(data[len(segMagic):])
	areaEnd := binary.BigEndian.Uint64(data[len(data)-8:])
	if areaEnd < segHeaderSize || areaEnd > uint64(len(data)-segFooterSize) {
		return corrupt("data area end %d out of range", areaEnd)
	}
	area := data[:areaEnd]
	var keys sketch.Words
	off, total := segHeaderSize, 0
	for off < len(area) {
		h, err := parseRunHeader(area[off:])
		if errors.Is(err, errWholeWords) && len(area)-off-h.size >= 4 && checksum(area[off:off+h.size]) == binary.BigEndian.Uint32(area[off+h.size:]) {
			return nil, fmt.Errorf("%s at offset %d: %w", path, off, err)
		}
		if err != nil {
			return corrupt("at offset %d: %v", off, err)
		}
		end := off + h.size
		if len(area)-end < 4 || checksum(area[off:end]) != binary.BigEndian.Uint32(area[end:]) {
			return corrupt("run header at offset %d fails checksum", off)
		}
		tag := string(h.tag)
		if n := len(idx.runs); n > 0 && (tag < idx.runs[n-1].tag || tag == idx.runs[n-1].tag && h.shape <= idx.runs[n-1].shape) {
			return corrupt("run at offset %d is out of subset order", off)
		}
		subset, err := bitvec.ParseTag(h.tag)
		if err != nil {
			return corrupt("run at offset %d: %v", off, err)
		}
		r := segRun{tag: tag, subset: subset, count: h.count, shape: h.shape, first: total, block0: len(idx.firstIDs)}
		// The run's ids are gathered only to hold each block against the one
		// before it: they cost their coded bytes, which the file bounds.
		var ids sketch.IDBuilder
		keys = keys.Reset()
		at := end + 4
		for left := h.count; left > 0; left -= segBlockRecords {
			// The words are only checked: every block lands on the same room.
			size, first, _, err := decodeBlock(area[at:], min(left, segBlockRecords), h.shape, &ids, keys)
			if err != nil {
				return corrupt("run at offset %d: %v", off, err)
			}
			idx.firstIDs, idx.blockOffs = append(idx.firstIDs, first), append(idx.blockOffs, int64(at))
			at += size
		}
		r.end = int64(at)
		idx.runs = append(idx.runs, r)
		off, total = at, total+h.count
	}
	if uint64(total) != count {
		return corrupt("holds %d records, its header says %d", total, count)
	}
	return idx, nil
}

// openSegment reads and validates the segment at path and returns its
// index.
func openSegment(path string) (*segIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return walkSegment(data, path)
}

// listSegments scans dir for segment files, sorted by sequence number.
// Leftover .tmp files from a crash mid-flush are removed.
func listSegments(dir string) ([]segmentMeta, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentMeta
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segmentMeta{seq: seq, path: filepath.Join(dir, e.Name()), bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
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
