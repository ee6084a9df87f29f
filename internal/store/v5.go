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

// Format v5 is read here and nowhere else, and only to be converted:
// convertV5 reads a v5 directory's runs and writes them back as v6 before
// any shard serves, and nothing writes v5.
//
// A v5 file is a v6 one but for its magic and its id columns: a v5 id
// block is a width byte w of whole bytes — 1 to 4, or 8 — then, below 8,
// the first id, 8 bytes, and each later id's difference from the one
// before it in w bytes, and at 8 the ids themselves, 8 bytes each, all
// big-endian.  A v5 file holding a run of whole words (a shape past 30)
// is refused with ErrFormatTooOld, as the version that wrote v5 refused it.
var (
	walMagicV5 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 5}
	segMagicV5 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 5}
)

// decodeV5IDs appends the n ids of the v5 id column at the front of src to
// dst and returns the column's size.  src is input: a malformed column
// appends nothing, and nothing is allocated for ids src holds no bytes of.
func decodeV5IDs(dst []bitvec.UserID, src []byte, n int) ([]bitvec.UserID, int, error) {
	keep, size := len(dst), 0
	for left := n; left > 0; left -= sketch.IDBlockLen {
		m := min(left, sketch.IDBlockLen)
		if size >= len(src) {
			return dst[:keep], 0, errors.New("v5 id column truncated")
		}
		w, body := int(src[size]), src[size+1:]
		switch {
		case w == 8:
			if len(body) < 8*m {
				return dst[:keep], 0, fmt.Errorf("v5 id block of %d raw ids in %d bytes", m, len(body))
			}
			for i := range m {
				dst = append(dst, bitvec.UserID(binary.BigEndian.Uint64(body[8*i:])))
			}
			size += 1 + 8*m
		case w >= 1 && w <= 4:
			if len(body) < 8+(m-1)*w {
				return dst[:keep], 0, fmt.Errorf("v5 id block of %d ids at width %d in %d bytes", m, w, len(body))
			}
			id := binary.BigEndian.Uint64(body)
			dst = append(dst, bitvec.UserID(id))
			for i := 1; i < m; i++ {
				var d uint64
				for _, c := range body[8+(i-1)*w : 8+i*w] {
					d = d<<8 | uint64(c)
				}
				if d == 0 || id+d < id {
					return dst[:keep], 0, errors.New("v5 id block of differences does not ascend")
				}
				id += d
				dst = append(dst, bitvec.UserID(id))
			}
			size += 1 + 8 + (m-1)*w
		default:
			return dst[:keep], 0, fmt.Errorf("v5 id block width %d", w)
		}
	}
	return dst, size, nil
}

// v5Run is one run of a v5 frame, decoded.
type v5Run struct {
	r    *growingRun
	ids  []bitvec.UserID
	keys sketch.Words
}

// addV5Frame adds the runs of one v5 frame payload to set, all of them or
// — when the payload is malformed anywhere — none.
func addV5Frame(set *runSet, payload []byte) error {
	if len(payload) < 4 {
		return errors.New("frame truncated")
	}
	var parts []v5Run
	count, rest := binary.BigEndian.Uint32(payload), payload[4:]
	for range count {
		h, err := parseRunHeader(rest)
		if err != nil {
			return err
		}
		ids, size, err := decodeV5IDs(nil, rest[h.size:], h.count)
		if err != nil {
			return err
		}
		end := h.size + size + wordsLen(h.count, h.shape)
		if end > len(rest) {
			return fmt.Errorf("run of %d records overruns its frame", h.count)
		}
		keys, err := sketch.Words{}.AppendBitsFrom(rest[h.size+size:end], h.shape, h.count)
		if err != nil {
			return err
		}
		r, err := set.runFor(h.tag, h.shape)
		if err != nil {
			return err
		}
		parts, rest = append(parts, v5Run{r, ids, keys}), rest[end:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d bytes after the frame's last run", len(rest))
	}
	for _, p := range parts {
		p.r.ids, p.r.keys = append(p.r.ids, p.ids...), p.r.keys.AppendWords(p.keys)
	}
	return nil
}

// decodeV5Log returns the records of a v5 log image's valid prefix, as a
// replay keeps it, as normalized runs.  A whole, checksum-clean frame
// holding a run of whole words fails it with ErrFormatTooOld.
func decodeV5Log(data []byte, path string) ([]run, error) {
	set := newRunSet()
	if _, err := eachFrame(data, len(data), func(payload []byte) error { return addV5Frame(set, payload) }); errors.Is(err, ErrFormatTooOld) {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set.normalized(), nil
}

// decodeV5Segment returns the runs of a v5 segment image, checking what
// walkSegment checks of a v6 one — every checksum, the run order, ids
// ascending, every word's shape and pad bits, the walk ending at the data
// area's end with the header's count — and failing loudly otherwise.
func decodeV5Segment(data []byte, path string) ([]run, error) {
	corrupt := func(format string, args ...any) ([]run, error) {
		return nil, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < segHeaderSize+segFooterSize {
		return corrupt("is %d bytes", len(data))
	}
	count := binary.BigEndian.Uint64(data[len(segMagicV5):])
	areaEnd := binary.BigEndian.Uint64(data[len(data)-8:])
	if areaEnd < segHeaderSize || areaEnd > uint64(len(data)-segFooterSize) {
		return corrupt("data area end %d out of range", areaEnd)
	}
	area := data[:areaEnd]
	var runs []run
	off, total := segHeaderSize, uint64(0)
	for off < len(area) {
		h, err := parseRunHeader(area[off:])
		if errors.Is(err, ErrFormatTooOld) && len(area)-off-h.size >= 4 && checksum(area[off:off+h.size]) == binary.BigEndian.Uint32(area[off+h.size:]) {
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
		if n := len(runs); n > 0 && (tag < runs[n-1].tag || tag == runs[n-1].tag && h.shape <= runs[n-1].Keys.Shape()) {
			return corrupt("run at offset %d is out of subset order", off)
		}
		subset, err := bitvec.ParseTag(h.tag)
		if err != nil {
			return corrupt("run at offset %d: %v", off, err)
		}
		var ids []bitvec.UserID
		var keys sketch.Words
		at := end + 4
		for left := h.count; left > 0; left -= segBlockRecords {
			m := min(left, segBlockRecords)
			var size int
			if ids, size, err = decodeV5IDs(ids, area[at:], m); err != nil {
				return corrupt("run at offset %d: %v", off, err)
			}
			words := at + size + wordsLen(m, h.shape)
			if len(area)-words < 4 || checksum(area[at:words]) != binary.BigEndian.Uint32(area[words:]) {
				return corrupt("run at offset %d: block at %d fails checksum", off, at)
			}
			if keys, err = keys.AppendBitsFrom(area[at+size:words], h.shape, m); err != nil {
				return corrupt("run at offset %d: %v", off, err)
			}
			at = words + 4
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
	return runs, nil
}

// v5Shard is what converting a shard writes, read before anything is:
// its files' runs as merge sources, oldest first, and the segments to
// remove once the merge is written.
type v5Shard struct {
	dir  string
	srcs []runSource
	segs []segmentMeta
	seq  uint64 // the merged segment's, above every other
	size int    // the bytes read, about the merged segment's size
}

// readV5Shard reads the shard directory dir for its conversion, writing
// nothing, and returns nil if nothing in it is v5.  Each file is read by
// its magic, v5 or v6 — a crash mid-conversion leaves both — so a
// conversion carries on from whatever a shard holds.
func readV5Shard(dir string) (_ *v5Shard, err error) {
	segs, _, err := listSegments(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sh := &v5Shard{dir: dir, segs: segs, seq: 1}
	defer func() {
		if err != nil {
			closeSources(sh.srcs)
		}
	}()
	v5 := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		sh.size += len(data)
		if bytes.HasPrefix(data, segMagicV5[:]) {
			runs, err := decodeV5Segment(data, seg.path)
			if err != nil {
				return nil, err
			}
			sh.srcs, v5 = append(sh.srcs, runSource{log: runs}), true
		} else {
			runs, err := walkSegment(data, seg.path)
			if err != nil {
				return nil, err
			}
			f, err := os.Open(seg.path)
			if err != nil {
				return nil, err
			}
			sh.srcs = append(sh.srcs, runSource{runs: runs, f: f})
		}
		sh.seq = seg.seq + 1
	}
	logPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	sh.size += len(data)
	var runs []run
	switch {
	case bytes.HasPrefix(data, walMagicV5[:]):
		if runs, err = decodeV5Log(data, logPath); err != nil {
			return nil, err
		}
		v5 = true
	case bytes.HasPrefix(data, walMagic[:]):
		set := newRunSet()
		if _, _, err := scanLog(data, set); err != nil {
			return nil, fmt.Errorf("store: replaying %s: %w", logPath, err)
		}
		runs = set.normalized()
	case len(data) >= len(walMagic):
		return nil, fmt.Errorf("store: %s is neither a v5 nor a v6 log", logPath)
	}
	sh.srcs = append(sh.srcs, runSource{log: runs})
	if !v5 {
		closeSources(sh.srcs)
		return nil, nil
	}
	return sh, nil
}

// write converts the shard: its records, merged newest-wins, become one
// v6 segment, newer than every other, beside an empty v6 log, and then the
// older segments are removed.  Each step is a fsynced file renamed into
// place or a removal, so a crash leaves the shard as it was, or holding
// its records twice — the new segment beside the files it came from —
// which the next Open's conversion merges again and deduplication
// absorbs.
func (sh *v5Shard) write() error {
	defer closeSources(sh.srcs)
	failed := func(err error) error {
		return fmt.Errorf("store: converting %s to format v6: %w", sh.dir, err)
	}
	w := newSegWriter(sh.size)
	if err := mergeSources(sh.srcs, func(r run) error { w.add(r); return nil }); err != nil {
		return failed(err)
	}
	if w.records > 0 {
		image, runs := w.finish()
		if _, err := writeSegment(sh.dir, sh.seq, image, runs); err != nil {
			return failed(err)
		}
	}
	if err := writeFileAtomic(filepath.Join(sh.dir, walName), walMagic[:]); err != nil {
		return failed(err)
	}
	for _, seg := range sh.segs {
		if err := removeFile(seg.path); err != nil {
			return failed(err)
		}
	}
	return syncDir(sh.dir)
}

// convertV5 converts a directory of v5 files — format is its manifest's
// marker, manifestV5 or manifestConverting — to v6, shard by shard, and
// marks it v6.  Every shard is read first, writing nothing, so a directory
// refused in any shard — a run of whole words, a corrupt segment — is left
// as it was; then the manifest is marked converting, each shard is
// written, and the manifest is marked v6.
func convertV5(dir string, shards int, format string) error {
	conv := make([]*v5Shard, shards)
	err := eachShard(shards, func(i int) (err error) {
		conv[i], err = readV5Shard(filepath.Join(dir, shardDirName(i)))
		return err
	})
	if err == nil && format != manifestConverting {
		err = writeManifest(dir, shards, manifestConverting, true)
	}
	if err != nil {
		for _, sh := range conv {
			if sh != nil {
				closeSources(sh.srcs)
			}
		}
		return err
	}
	if err := eachShard(shards, func(i int) error {
		if conv[i] == nil {
			return nil
		}
		return conv[i].write()
	}); err != nil {
		return err
	}
	return writeManifest(dir, shards, manifestFormat, true)
}
