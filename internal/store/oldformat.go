package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// What an older binary wrote is read here and nowhere else, and only to be
// converted: convertShard decodes each file of a shard that holds any of
// it and writes its records back as v5 runs of one length before the
// shard serves.  Nothing writes the older forms.
//
// Formats v3 and v4 are v5 but for the word column: a run's sketches are
// Pack words, big-endian, at the byte width w (1..5) of the run's widest,
// which the run header's last byte gives.  v4's ids are v5's id column;
// v3's are 8-byte big-endian ids, count of them before the words in a log
// frame and a segment block alike.  A v3 segment may hold a stored index
// section and a bloom filter between its data area and its footer, which
// are skipped.
//
// A v5 file an older binary wrote may hold a run of whole words: the
// header's shape s past 30, each Pack word in s − 30 bits, low bit first,
// as a column that met a second length held them.
//
// A directory older than v3 — per-record logs, v1 or v2 segments, no
// format marker in its manifest — is refused with ErrFormatTooOld.
var (
	walMagicV3 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 3}
	segMagicV3 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 3}
	walMagicV4 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 4}
	segMagicV4 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 4}
)

const (
	// maxWordWidth is the byte width of the widest Pack word of a valid
	// sketch, a 30-bit key above a 5-bit length.
	maxWordWidth = 5
	// maxWholeShape is the widest shape of whole Pack words, in their 35
	// bits.
	maxWholeShape = sketch.MaxLength + sketch.MaxLength + 5
)

// wordBytes is how many bytes the word column of n records takes in a file
// of the given format version, its run header's last byte being code.
func wordBytes(version, code, n int) int {
	if version < 5 {
		return n * code
	}
	return (n*wordBits(code) + 7) / 8
}

// parseAnyRunHeader reads a run header of any format version at the front
// of src — parseRunHeader's, its last byte the word width under v3 and v4
// and the shape, whole words included, under v5 — and returns it with that
// byte, refusing a count the columns after it could not hold.
func parseAnyRunHeader(src []byte, version int) (runHeader, int, error) {
	if len(src) < runHeaderFixed {
		return runHeader{}, 0, fmt.Errorf("run header truncated at %d bytes", len(src))
	}
	tagLen := uint64(binary.BigEndian.Uint32(src))
	if tagLen > uint64(len(src)-runHeaderFixed) {
		return runHeader{}, 0, fmt.Errorf("run tag of %d bytes overruns its %d-byte buffer", tagLen, len(src))
	}
	h := runHeader{tag: src[4 : 4+tagLen], size: runHeaderFixed + int(tagLen)}
	count, code := uint64(binary.BigEndian.Uint32(src[4+tagLen:])), int(src[h.size-1])
	widest := maxWholeShape
	if version < 5 {
		widest = maxWordWidth
	}
	if code < 1 || code > widest {
		return runHeader{}, 0, fmt.Errorf("run word code %d", code)
	}
	least := uint64(sketch.MinIDBlocksLen(int(count)))
	if version == 3 {
		least = 8 * count
	}
	if rest := uint64(len(src) - h.size); count == 0 || count > rest || least+uint64(wordBytes(version, code, int(count))) > rest {
		return runHeader{}, 0, fmt.Errorf("run of %d records in %d bytes", count, rest)
	}
	h.count = int(count)
	return h, code, nil
}

// decodeAnyColumns appends the n records whose columns start src, in a
// file of the given format version under word code, to ids and words and
// returns the columns' size, refusing a word that is no valid sketch and
// pad bits that are not zero.  On an error what was appended is undefined.
func decodeAnyColumns(src []byte, n, version, code int, ids []bitvec.UserID, words []uint64) ([]bitvec.UserID, []uint64, int, error) {
	idsLen := 8 * n
	if version > 3 {
		var err error
		if idsLen, err = sketch.IDBlocksLen(src, n); err != nil {
			return ids, words, 0, err
		}
	}
	end := idsLen + wordBytes(version, code, n)
	if end > len(src) {
		return ids, words, 0, fmt.Errorf("%d records of word code %d overrun their %d bytes", n, code, len(src))
	}
	col := src[idsLen:end]
	for i := 0; i < n; i++ {
		var w uint64
		switch {
		case version < 5:
			for _, c := range col[i*code : (i+1)*code] {
				w = w<<8 | uint64(c)
			}
		case code <= sketch.MaxLength:
			w = bitsLE(col, i*code, code)<<5 | uint64(code)
		default:
			w = bitsLE(col, i*(code-sketch.MaxLength), code-sketch.MaxLength)
		}
		if !sketch.UnpackSketch(w).Valid() {
			return ids, words, 0, fmt.Errorf("sketch: word %#x is no valid sketch", w)
		}
		words = append(words, w)
	}
	if version == 5 {
		if pad := uint(8*len(col) - n*wordBits(code)); pad > 0 && col[len(col)-1]>>(8-pad) != 0 {
			return ids, words, 0, fmt.Errorf("pad bits set after %d words of shape %d", n, code)
		}
	}
	if version == 3 {
		for i := 0; i < n; i++ {
			ids = append(ids, bitvec.UserID(binary.BigEndian.Uint64(src[8*i:])))
		}
		return ids, words, end, nil
	}
	ids, _, err := sketch.DecodeIDBlocks(ids, src[:idsLen], n)
	return ids, words, end, err
}

// wordBits is how many bits a v5 word of shape code takes.
func wordBits(code int) int {
	if code > sketch.MaxLength {
		return code - sketch.MaxLength
	}
	return code
}

// bitsLE returns the m ≤ 35 bits of a little-endian byte stream from bit p
// on.
func bitsLE(src []byte, p, m int) uint64 {
	var x uint64
	for i, q := 0, p>>3; 8*i < p&7+m; i++ {
		x |= uint64(src[q+i]) << (8 * uint(i))
	}
	return x >> uint(p&7) & (1<<uint(m) - 1)
}

// fileVersion returns the format version a file's magic names — 3, 4 or
// 5 — among the given magics, oldest first, or 0.
func fileVersion(data []byte, v3, v4, v5 [8]byte) int {
	for version, magic := range [][8]byte{v3, v4, v5} {
		if bytes.HasPrefix(data, magic[:]) {
			return version + 3
		}
	}
	return 0
}

// decodeAnyLog returns the records of a log image of any format — its
// valid prefix, as a replay keeps it — as normalized runs, one length each,
// and whether it must be rewritten: of an older format, or holding whole
// words.  A log of no format, an empty one among them, holds nothing.
func decodeAnyLog(data []byte) (runs []run, rewrite bool) {
	version := fileVersion(data, walMagicV3, walMagicV4, walMagic)
	if version == 0 {
		return nil, false
	}
	set, whole := newRunSet(), false
	eachFrame(data, len(data), func(payload []byte) error {
		parts, err := decodeFrame(payload, version)
		for _, p := range parts {
			addWords(set, p.subset, p.ids, p.words)
			whole = whole || p.whole
		}
		return err
	})
	return set.normalized(), version < 5 || whole
}

// addWords adds the records of subset b — ids and Pack words of any
// lengths — to set, each to the run of its length, a stretch of one length
// at a time.
func addWords(set *runSet, b bitvec.Subset, ids []bitvec.UserID, words []uint64) {
	set.tagBuf = b.AppendTag(set.tagBuf[:0])
	for i := 0; i < len(ids); {
		n := i + 1
		for n < len(ids) && words[n]&31 == words[i]&31 {
			n++
		}
		r, err := set.runFor(set.tagBuf, sketch.Shape(words[i]&31))
		if err != nil {
			panic(err) // the tag of a valid Subset parses
		}
		if r.keys.Len() == 0 {
			r.keys = sketch.MakeWords(r.shape, 0, n-i)
		}
		r.ids = append(r.ids, ids[i:n]...)
		for _, w := range words[i:n] {
			r.keys = r.keys.Append(w)
		}
		i = n
	}
}

// framePart is one run of a log frame as a conversion reads it.
type framePart struct {
	subset bitvec.Subset
	ids    []bitvec.UserID
	words  []uint64
	whole  bool // a v5 run of whole words
}

// decodeFrame returns the runs of a log frame payload of the given format
// version, all of them or — when the payload is malformed anywhere, so
// that the frame ends the log's valid prefix — none.
func decodeFrame(payload []byte, version int) ([]framePart, error) {
	if len(payload) < 4 {
		return nil, errors.New("frame truncated")
	}
	var parts []framePart
	n, rest := binary.BigEndian.Uint32(payload), payload[4:]
	for i := uint32(0); i < n; i++ {
		h, code, err := parseAnyRunHeader(rest, version)
		if err != nil {
			return nil, err
		}
		subset, err := bitvec.ParseTag(h.tag)
		if err != nil {
			return nil, err
		}
		ids, words, size, err := decodeAnyColumns(rest[h.size:], h.count, version, code, nil, nil)
		if err != nil {
			return nil, err
		}
		parts = append(parts, framePart{subset, ids, words, version == 5 && code > sketch.MaxLength})
		rest = rest[h.size+size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes after the frame's last run", len(rest))
	}
	return parts, nil
}

// decodeAnySegment returns the runs of a segment image of any format, one
// length each, normalized, and whether it must be rewritten: of an older
// format, or holding whole words.  It checks what walkSegment checks of a
// v5 one — every checksum, the run order, ids ascending, every word a
// valid sketch, the walk ending at the data area's end with the header's
// count — and fails loudly otherwise.
func decodeAnySegment(data []byte, path string) ([]run, bool, error) {
	corrupt := func(format string, args ...any) ([]run, bool, error) {
		return nil, false, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	version := fileVersion(data, segMagicV3, segMagicV4, segMagic)
	if version == 0 {
		return corrupt("has magic %q, of no format", data[:min(8, len(data))])
	}
	if len(data) < segHeaderSize+segFooterSize {
		return corrupt("is %d bytes", len(data))
	}
	count := binary.BigEndian.Uint64(data[len(segMagic):])
	areaEnd := binary.BigEndian.Uint64(data[len(data)-8:])
	if areaEnd < segHeaderSize || areaEnd > uint64(len(data)-segFooterSize) {
		return corrupt("data area end %d out of range", areaEnd)
	}
	area := data[:areaEnd]
	set := newRunSet()
	off, total, whole, last, lastCode := segHeaderSize, uint64(0), false, "", 0
	for off < len(area) {
		h, code, err := parseAnyRunHeader(area[off:], version)
		if err != nil {
			return corrupt("at offset %d: %v", off, err)
		}
		end := off + h.size
		if len(area)-end < 4 || checksum(area[off:end]) != binary.BigEndian.Uint32(area[end:]) {
			return corrupt("run header at offset %d fails checksum", off)
		}
		tag := string(h.tag)
		// A v5 file holds a subset's lengths in runs of their own (a crash
		// in a conversion can leave one beside a file still to convert);
		// older ones hold a subset in one run.
		if total > 0 && (tag < last || tag == last && (version < 5 || code <= lastCode || code > sketch.MaxLength)) {
			return corrupt("run at offset %d is out of subset order", off)
		}
		subset, err := bitvec.ParseTag(h.tag)
		if err != nil {
			return corrupt("run at offset %d: %v", off, err)
		}
		ids, words := make([]bitvec.UserID, 0, h.count), make([]uint64, 0, h.count)
		at := end + 4
		for left := h.count; left > 0; left -= segBlockRecords {
			var size int
			if ids, words, size, err = decodeAnyColumns(area[at:], min(left, segBlockRecords), version, code, ids, words); err != nil {
				return corrupt("run at offset %d: %v", off, err)
			}
			if len(area)-at-size < 4 || checksum(area[at:at+size]) != binary.BigEndian.Uint32(area[at+size:]) {
				return corrupt("run at offset %d: block at %d fails checksum", off, at)
			}
			at += size + 4
		}
		if !sketch.Ascends(ids) {
			return corrupt("run at offset %d: ids out of order", off)
		}
		addWords(set, subset, ids, words)
		whole = whole || (version == 5 && code > sketch.MaxLength)
		off, total, last, lastCode = at, total+uint64(h.count), tag, code
	}
	if total != count {
		return corrupt("holds %d records, its header says %d", total, count)
	}
	return set.normalized(), version < 5 || whole, nil
}

// convertShard rewrites every file of a shard directory that holds what
// this version does not serve — a file of format v3 or v4, or a v5 one
// holding a run of whole words — as v5 runs of one length each, a run of
// two lengths becoming two, and nothing else:
//
//  1. a log to rewrite becomes segment seq, newer than every other,
//     holding its acknowledged records — the valid prefix, as a replay
//     keeps it — beside a new empty v5 log;
//  2. every segment to rewrite, a lone one included, is rewritten at its
//     own seq.
//
// One file is in memory at a time.  Each goes through a fsynced temporary
// file and a rename, so a crash leaves it old or new, and the next Open
// carries on from what each file holds: a crash between a log's segment
// and its new log leaves the records in both, which deduplication absorbs.
func convertShard(dir string) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	failed := func(path string, err error) error {
		return fmt.Errorf("store: converting %s to format v5: %w", path, err)
	}
	logPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if runs, rewrite := decodeAnyLog(data); rewrite {
		if len(runs) > 0 {
			seq := uint64(1)
			if len(segs) > 0 {
				seq = segs[len(segs)-1].seq + 1
			}
			image, idx := encodeSegment(runs)
			if _, err := writeSegment(dir, seq, image, idx); err != nil {
				return failed(logPath, err)
			}
		}
		if err := writeFileAtomic(logPath, walMagic[:]); err != nil {
			return failed(logPath, err)
		}
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		runs, rewrite, err := decodeAnySegment(data, seg.path)
		if err != nil {
			return err
		}
		if !rewrite {
			continue
		}
		image, _ := encodeSegment(runs)
		if err := writeFileAtomic(seg.path, image); err != nil {
			return failed(seg.path, err)
		}
	}
	return syncDir(dir)
}
