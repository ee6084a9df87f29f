package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// The older formats, v3 and v4, are read here and nowhere else, and only
// to be converted: convertShard hands each file they wrote to decodeOldLog
// or decodeOldSegment and writes what comes back as v5 before the shard
// serves.  Nothing writes them.
//
// Both are v5 but for the word column: a run's sketches are Pack words,
// big-endian, at the byte width w (1..5) of the run's widest, which the
// run header's last byte gives.  v4's ids are v5's id column; v3's are
// 8-byte big-endian ids, count of them before the words in a log frame
// and a segment block alike.  A v3 segment may hold a stored index section
// and a bloom filter between its data area and its footer, which are
// skipped.  Delete this file, and the older magics with it, once no
// directory is left that a version before v5 wrote.
//
// A directory older than v3 — per-record logs, v1 or v2 segments, no
// format marker in its manifest — is refused with ErrFormatTooOld.
var (
	walMagicV3 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 3}
	segMagicV3 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 3}
	walMagicV4 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 4}
	segMagicV4 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 4}
)

// maxWordWidth is the byte width of the widest Pack word of a valid
// sketch, a 30-bit key above a 5-bit length.
const maxWordWidth = 5

// parseOldRunHeader reads the v3 or v4 run header at the front of src —
// parseRunHeader's, its last byte the run's word width — and returns it
// with the width, refusing a count the columns after it could not hold.
func parseOldRunHeader(src []byte, v3 bool) (runHeader, int, error) {
	if len(src) < runHeaderFixed {
		return runHeader{}, 0, fmt.Errorf("run header truncated at %d bytes", len(src))
	}
	tagLen := uint64(binary.BigEndian.Uint32(src))
	if tagLen > uint64(len(src)-runHeaderFixed) {
		return runHeader{}, 0, fmt.Errorf("run tag of %d bytes overruns its %d-byte buffer", tagLen, len(src))
	}
	h := runHeader{tag: src[4 : 4+tagLen], size: runHeaderFixed + int(tagLen)}
	count, width := uint64(binary.BigEndian.Uint32(src[4+tagLen:])), int(src[h.size-1])
	if width < 1 || width > maxWordWidth {
		return runHeader{}, 0, fmt.Errorf("run sketch width %d", width)
	}
	least := uint64(sketch.MinIDBlocksLen(int(count)))
	if v3 {
		least = 8 * count
	}
	if rest := uint64(len(src) - h.size); count == 0 || count > rest || least+count*uint64(width) > rest {
		return runHeader{}, 0, fmt.Errorf("run of %d records in %d bytes", count, rest)
	}
	h.count = int(count)
	return h, width, nil
}

// decodeOldColumns appends the n records whose v3 or v4 columns start src
// to ids and keys and returns the columns' size, refusing — before it
// appends any word — a word that is no valid sketch.
func decodeOldColumns(src []byte, n, width int, v3 bool, ids []bitvec.UserID, keys sketch.Words) ([]bitvec.UserID, sketch.Words, int, error) {
	idsLen := 8 * n
	if !v3 {
		var err error
		if idsLen, err = sketch.IDBlocksLen(src, n); err != nil {
			return ids, keys, 0, err
		}
	}
	end := idsLen + n*width
	if end > len(src) {
		return ids, keys, 0, fmt.Errorf("%d records of width %d overrun their %d bytes", n, width, len(src))
	}
	keys, err := appendEncoded(keys, src[idsLen:end], width)
	if err != nil {
		return ids, keys, 0, err
	}
	if !v3 {
		ids, _, err = sketch.DecodeIDBlocks(ids, src[:idsLen], n)
		return ids, keys, end, err
	}
	for i := 0; i < n; i++ {
		ids = append(ids, bitvec.UserID(binary.BigEndian.Uint64(src[8*i:])))
	}
	return ids, keys, end, nil
}

// appendEncoded appends the Pack words src holds, width bytes each,
// big-endian, after checking that each packs a valid sketch; it appends
// nothing otherwise.
func appendEncoded(keys sketch.Words, src []byte, width int) (sketch.Words, error) {
	word := func(i int) uint64 {
		var w uint64
		for _, c := range src[i*width : (i+1)*width] {
			w = w<<8 | uint64(c)
		}
		return w
	}
	n := len(src) / width
	for i := 0; i < n; i++ {
		if !sketch.UnpackSketch(word(i)).Valid() {
			return keys, fmt.Errorf("sketch: word %#x is no valid sketch", word(i))
		}
	}
	for i := 0; i < n; i++ {
		keys = keys.Append(word(i))
	}
	return keys, nil
}

// decodeOldLog returns the records of a v3 or v4 log image — its valid
// prefix, as a replay keeps it — as normalized runs, and true; false if
// data is no such log.
func decodeOldLog(data []byte) ([]run, bool) {
	v3 := bytes.HasPrefix(data, walMagicV3[:])
	if !v3 && !bytes.HasPrefix(data, walMagicV4[:]) {
		return nil, false
	}
	set := newRunSet()
	type part struct {
		r    *growingRun
		ids  []bitvec.UserID
		keys sketch.Words
	}
	var parts []part
	eachFrame(data, len(data), func(payload []byte) error {
		// A frame's runs are all decoded before any is added: a malformed
		// one ends the valid prefix with nothing of its frame kept.
		if len(payload) < 4 {
			return errors.New("frame truncated")
		}
		parts = parts[:0]
		runs, rest := binary.BigEndian.Uint32(payload), payload[4:]
		for i := uint32(0); i < runs; i++ {
			h, width, err := parseOldRunHeader(rest, v3)
			if err != nil {
				return err
			}
			r, err := set.runFor(h.tag)
			if err != nil {
				return err
			}
			ids, keys, size, err := decodeOldColumns(rest[h.size:], h.count, width, v3, nil, sketch.Words{})
			if err != nil {
				return err
			}
			parts, rest = append(parts, part{r, ids, keys}), rest[h.size+size:]
		}
		if len(rest) != 0 {
			return fmt.Errorf("%d bytes after the frame's last run", len(rest))
		}
		for _, p := range parts {
			p.r.ids, p.r.keys = append(p.r.ids, p.ids...), p.r.keys.AppendWords(p.keys)
		}
		return nil
	})
	return set.normalized(), true
}

// decodeOldSegment returns the runs of a v3 or v4 segment image, and true;
// false if data is no such segment.  It checks what walkSegment checks of
// a v5 one — every checksum, the subset order, ids ascending, every word a
// valid sketch, the walk ending at the data area's end with the header's
// count — and fails loudly otherwise.
func decodeOldSegment(data []byte, path string) ([]run, bool, error) {
	if len(data) < len(segMagicV3) {
		return nil, false, nil
	}
	v3 := [8]byte(data[:8]) == segMagicV3
	if !v3 && [8]byte(data[:8]) != segMagicV4 {
		return nil, false, nil
	}
	corrupt := func(format string, args ...any) ([]run, bool, error) {
		return nil, true, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < segHeaderSize+segFooterSize {
		return corrupt("is %d bytes", len(data))
	}
	count := binary.BigEndian.Uint64(data[len(segMagicV3):])
	areaEnd := binary.BigEndian.Uint64(data[len(data)-8:])
	if areaEnd < segHeaderSize || areaEnd > uint64(len(data)-segFooterSize) {
		return corrupt("data area end %d out of range", areaEnd)
	}
	area := data[:areaEnd]
	var runs []run
	off, total := segHeaderSize, uint64(0)
	for off < len(area) {
		h, width, err := parseOldRunHeader(area[off:], v3)
		if err != nil {
			return corrupt("at offset %d: %v", off, err)
		}
		end := off + h.size
		if len(area)-end < 4 || checksum(area[off:end]) != binary.BigEndian.Uint32(area[end:]) {
			return corrupt("run header at offset %d fails checksum", off)
		}
		tag := string(h.tag)
		if n := len(runs); n > 0 && tag <= runs[n-1].tag {
			return corrupt("run at offset %d is out of subset order", off)
		}
		subset, err := bitvec.ParseTag(h.tag)
		if err != nil {
			return corrupt("run at offset %d: %v", off, err)
		}
		ids, keys := make([]bitvec.UserID, 0, h.count), sketch.Words{}
		at := end + 4
		for left := h.count; left > 0; left -= segBlockRecords {
			var size int
			if ids, keys, size, err = decodeOldColumns(area[at:], min(left, segBlockRecords), width, v3, ids, keys); err != nil {
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
		runs = append(runs, run{tag: tag, Run: sketch.Run{Subset: subset, IDs: sketch.MakeIDs(ids), Keys: keys}})
		off, total = at, total+uint64(h.count)
	}
	if total != count {
		return corrupt("holds %d records, its header says %d", total, count)
	}
	return runs, true, nil
}
