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

// Segment format v3, the only one written.  A segment is a shard's runs
// (run.go) in subset-tag order, ids ascending within each, every record
// (user, subset) pair at most once:
//
//	16 byte header: magic "SKSEG\x00\x00\x03" | 8-byte record count
//	data area, per run:
//	  run header (tag length, tag, count, sketch width) | 4-byte checksum
//	  of the header | the run's columns cut into blocks of segBlockRecords
//	  records (the last one shorter): ids, sketch words, 4-byte checksum
//	  of the block
//	12 byte footer: 4-byte checksum of nothing | 8-byte data-area end
//
// All integers are big-endian, every checksum is checksum().  A record
// costs its 8-byte id and its sketch word (2 bytes for the 9- to 11-bit
// sketches of a million-user deployment); block sums add 1/16 byte, and a
// subset's tag is paid once per segment.
//
// Integrity.  The data area carries the records and describes itself:
// Open walks it run by run, verifying every checksum and that the walk
// ends exactly where the footer says the data area does with exactly the
// header's record count, and fails loudly otherwise.  The run directory
// and the sparse id index a reader uses are what that walk derives —
// nothing a reader trusts is stored beside the data, so it can be wrong
// about nothing.  Reads verify the checksum of every block they touch.
//
// Between the data area's end and the footer, segments written before the
// index was derived hold a stored copy of it and a bloom filter, under the
// footer's checksum; the section is skipped, not parsed, and a segment
// written now has an empty one — which is what an older binary's
// unusable-index arm expects, so the format is v3 in both directions.
//
// Segments are written to a temporary file, fsynced and renamed into
// place, so a segment either exists completely or not at all.
var segMagic = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 3}

const (
	segHeaderSize = 16 // magic + record count
	segFooterSize = 12 // checksum of the empty section + data-area end
	// segBlockRecords is how many records share a checksum and a sparse
	// index entry: a point lookup reads one block (640 bytes at width 2).
	segBlockRecords = 64
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

// blockLen is the size of a block of n records: columns and checksum.
func blockLen(n, width int) int { return n*(8+width) + 4 }

// blocksLen is the size of the blocks holding the first n records of a
// run; n is a whole number of blocks or the run's full count.
func blocksLen(n, width int) int {
	size := n / segBlockRecords * blockLen(segBlockRecords, width)
	if rest := n % segBlockRecords; rest > 0 {
		size += blockLen(rest, width)
	}
	return size
}

// segWriter assembles a segment image from runs added in tag order.
type segWriter struct {
	buf     []byte
	idx     *segIndex
	records int
}

// newSegWriter starts a segment of at most maxRecords records, which size
// its buffer.
func newSegWriter(maxRecords int) *segWriter {
	w := &segWriter{
		buf: make([]byte, segHeaderSize, segHeaderSize+maxRecords*12+1024),
		idx: &segIndex{},
	}
	copy(w.buf, segMagic[:])
	return w
}

// add appends a run: ids strictly ascending, its tag above the last one's.
func (w *segWriter) add(r run) {
	if len(r.IDs) == 0 {
		return
	}
	width := r.Keys.MinWidth()
	header := len(w.buf)
	w.buf = appendRunHeader(w.buf, r.tag, len(r.IDs), width)
	w.buf = binary.BigEndian.AppendUint32(w.buf, checksum(w.buf[header:]))
	w.idx.runs = append(w.idx.runs, segRun{
		tag: r.tag, subset: r.Subset, off: uint64(len(w.buf)), count: len(r.IDs), width: width,
		first: w.records, block0: len(w.idx.firstIDs),
	})
	for at := 0; at < len(r.IDs); at += segBlockRecords {
		end := min(at+segBlockRecords, len(r.IDs))
		w.idx.firstIDs = append(w.idx.firstIDs, r.IDs[at])
		block := len(w.buf)
		w.buf = appendColumns(w.buf, r.IDs[at:end], r.Keys.Slice(at, end), width)
		w.buf = binary.BigEndian.AppendUint32(w.buf, checksum(w.buf[block:]))
	}
	w.records += len(r.IDs)
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
	records := 0
	for _, r := range runs {
		records += len(r.IDs)
	}
	w := newSegWriter(records)
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
	return nil
}

// decodeBlocks appends the count records held by src — exactly the blocks
// of a run's stretch that starts on a block boundary — to ids and keys,
// verifying every block's checksum.
func decodeBlocks(src []byte, count, width int, ids []bitvec.UserID, keys sketch.Words) ([]bitvec.UserID, sketch.Words, error) {
	if len(src) != blocksLen(count, width) {
		return ids, keys, fmt.Errorf("%d bytes of blocks for %d records of width %d", len(src), count, width)
	}
	for count > 0 {
		n := min(count, segBlockRecords)
		cols := src[:n*(8+width)]
		if checksum(cols) != binary.BigEndian.Uint32(src[len(cols):]) {
			return ids, keys, errors.New("block fails checksum")
		}
		var err error
		if ids, keys, err = decodeColumns(cols, n, width, ids, keys); err != nil {
			return ids, keys, err
		}
		src, count = src[blockLen(n, width):], count-n
	}
	return ids, keys, nil
}

// walkSegment validates a v3 image's data area — trusting nothing but the
// bytes it is reading — and returns the index the area implies.  Every
// record is decoded, so a segment Open accepted holds only well-formed,
// checksum-clean, correctly ordered records.
func walkSegment(data []byte, path string) (*segIndex, error) {
	corrupt := func(format string, args ...any) (*segIndex, error) {
		return nil, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < segHeaderSize+segFooterSize {
		return corrupt("is %d bytes", len(data))
	}
	if [8]byte(data[:8]) != segMagic {
		return corrupt("has bad magic")
	}
	// The record count and the data area's end cross-check each other
	// through the walk: it must reach the end exactly, with exactly the
	// count.  Whatever lies between the end and the footer is skipped.
	count := binary.BigEndian.Uint64(data[len(segMagic):])
	areaEnd := binary.BigEndian.Uint64(data[len(data)-8:])
	if areaEnd < segHeaderSize || areaEnd > uint64(len(data)-segFooterSize) {
		return corrupt("data area end %d out of range", areaEnd)
	}
	area := data[:areaEnd]
	idx := &segIndex{}
	var ids []bitvec.UserID
	var keys sketch.Words
	off, total := segHeaderSize, 0
	for off < len(area) {
		h, err := parseRunHeader(area[off:])
		if err != nil {
			return corrupt("at offset %d: %v", off, err)
		}
		end := off + h.size
		if len(area)-end < 4 || checksum(area[off:end]) != binary.BigEndian.Uint32(area[end:]) {
			return corrupt("run header at offset %d fails checksum", off)
		}
		tag := string(h.tag)
		if n := len(idx.runs); n > 0 && tag <= idx.runs[n-1].tag {
			return corrupt("run at offset %d is out of subset order", off)
		}
		subset, err := bitvec.ParseTag(h.tag)
		if err != nil {
			return corrupt("run at offset %d: %v", off, err)
		}
		blocks := end + 4
		size := blocksLen(h.count, h.width)
		if size > len(area)-blocks {
			return corrupt("run at offset %d overruns the data area", off)
		}
		if ids, keys, err = decodeBlocks(area[blocks:blocks+size], h.count, h.width, ids[:0], keys.Reset(h.width)); err != nil {
			return corrupt("run at offset %d: %v", off, err)
		}
		if !strictlyAscending(ids) {
			return corrupt("run at offset %d is out of user order", off)
		}
		idx.runs = append(idx.runs, segRun{
			tag: tag, subset: subset, off: uint64(blocks), count: h.count, width: h.width,
			first: total, block0: len(idx.firstIDs),
		})
		for at := 0; at < h.count; at += segBlockRecords {
			idx.firstIDs = append(idx.firstIDs, ids[at])
		}
		off, total = blocks+size, total+h.count
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
