package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// Format v8 is read here and nowhere else, and only to be converted:
// convertV8 reads a v8 directory's segments and logs and writes them back
// as v9 segments before any shard serves, and nothing writes v8.
//
// A v8 file holds the runs a v9 one does, under its own magic —
// "SKSEG\x00\x00\x08" for a segment, "SKWAL\x00\x00\x08" for a log — in
// frames whose head is
//
//	4 bytes big-endian payload length
//	4 bytes big-endian checksum of the payload
//
// and a run's header is
//
//	the subset: a uvarint position count, then each position a uvarint
//	1 byte  the shape, ℓ, with sharedIDs (0x80) set where the run holds
//	        the ids of the run before it in its frame
//	uvarint the record count (≥ 1), where the run carries its own ids
//
// every integer in its fewest bytes, before its id column, unless it
// shares it, and its words.
var (
	segMagicV8 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 8}
	walMagicV8 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 8}
)

const frameHeadV8 = 4 + 4 // payload length, checksum

// eachFrameV8 is eachFrame over v8 frames.
func eachFrameV8(data []byte, off, end int, fn func(at int, payload []byte) error) (int, error) {
	for end-off >= frameHeadV8 {
		n := int64(binary.BigEndian.Uint32(data[off:]))
		if n > int64(end-off-frameHeadV8) {
			break
		}
		payload := data[off+frameHeadV8 : off+frameHeadV8+int(n)]
		if checksum(payload) != binary.BigEndian.Uint32(data[off+4:]) {
			break
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off += frameHeadV8 + int(n)
	}
	return off, nil
}

// uvarintV8 reads the uvarint at src[at:], which must be in its fewest
// bytes, and returns it and where it ends.
func uvarintV8(src []byte, at int) (uint64, int, error) {
	x, k := binary.Uvarint(src[at:])
	if k <= 0 || k > 1 && src[at+k-1] == 0 {
		return 0, 0, fmt.Errorf("uvarint at byte %d cut short or padded", at)
	}
	return x, at + k, nil
}

// parseRunHeaderV8 reads the v8 run header at the front of src, held to
// the bounds v8 held it to, and returns it with the subset it names; prev
// is as parseRunHeader's.
func parseRunHeaderV8(src []byte, prev int) (runHeader, bitvec.Subset, error) {
	count, at, err := uvarintV8(src, 0)
	if err != nil {
		return runHeader{}, bitvec.Subset{}, err
	}
	if count > uint64(len(src)-at) {
		return runHeader{}, bitvec.Subset{}, fmt.Errorf("subset of %d positions in %d bytes", count, len(src)-at)
	}
	pos := make([]int, count)
	for i := range pos {
		var p uint64
		if p, at, err = uvarintV8(src, at); err != nil {
			return runHeader{}, bitvec.Subset{}, err
		}
		if p > math.MaxInt {
			return runHeader{}, bitvec.Subset{}, fmt.Errorf("subset position %d out of range", p)
		}
		pos[i] = int(p)
	}
	subset, err := bitvec.NewSubset(pos...)
	if err != nil {
		return runHeader{}, bitvec.Subset{}, err
	}
	if at == len(src) {
		return runHeader{}, bitvec.Subset{}, fmt.Errorf("run header truncated at %d bytes", len(src))
	}
	b := src[at]
	h := runHeader{name: src[:at], shape: sketch.Shape(b &^ sharedIDs), shared: b&sharedIDs != 0, size: at + 1}
	if h.shape == 0 || h.shape > sketch.MaxLength {
		return runHeader{}, bitvec.Subset{}, fmt.Errorf("run word shape %d", h.shape)
	}
	least := 0
	if h.shared {
		if prev == 0 {
			return runHeader{}, bitvec.Subset{}, errors.New("a frame's first run shares the ids of none")
		}
		h.count = prev
	} else {
		if count, h.size, err = uvarintV8(src, h.size); err != nil {
			return runHeader{}, bitvec.Subset{}, err
		}
		if count == 0 || count > 8*uint64(len(src)-h.size) {
			return runHeader{}, bitvec.Subset{}, fmt.Errorf("run of %d records in %d bytes", count, len(src)-h.size)
		}
		h.count = int(count)
		least = sketch.MinIDBlocksLen(h.count)
	}
	if rest := len(src) - h.size; least+wordsLen(h.count, h.shape) > rest {
		return runHeader{}, bitvec.Subset{}, fmt.Errorf("run of %d records in %d bytes", h.count, rest)
	}
	return h, subset, nil
}

// eachRunV8 is eachRun over a v8 frame payload, each run with the subset
// it names.
func eachRunV8(payload []byte, fn func(h runHeader, subset bitvec.Subset, ids, words []byte) error) error {
	if len(payload) == 0 {
		return errors.New("a frame holds no run")
	}
	var ids []byte
	for rest, prev := payload, 0; len(rest) > 0; {
		h, subset, err := parseRunHeaderV8(rest, prev)
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
		if err := fn(h, subset, ids, rest[at:end]); err != nil {
			return err
		}
		rest, prev = rest[end:], h.count
	}
	return nil
}

// logV9 writes the frames of a v8 log image as a v9 log's, run for run —
// a run sharing the ids of the one before it still sharing them — up to
// the first frame that is not whole, checksum-clean and parsed, so that
// scanLog reads from it what the v8 log's replay read: its valid prefix.
// A frame whose columns are malformed is written as it is, and ends the v9
// log's valid prefix as it ended the v8 one's.
func logV9(data []byte) []byte {
	out := append(make([]byte, 0, len(data)), walMagic[:]...)
	eachFrameV8(data, len(walMagicV8), len(data), func(_ int, payload []byte) error {
		buf, frame := openFrame(out)
		err := eachRunV8(payload, func(h runHeader, subset bitvec.Subset, ids, words []byte) error {
			buf = appendRunHeader(buf, subset, h.count, h.shape, h.shared)
			if !h.shared {
				buf = append(buf, ids...)
			}
			buf = append(buf, words...)
			return nil
		})
		if err == nil {
			out = closeFrame(buf, frame)
		}
		return err
	})
	return out
}

// decodeV8Segment returns the runs of a v8 segment image, trusting nothing
// but its bytes — every checksum, the run order, every id block and its
// ascent, every word's shape and pad bits, and the frames ending exactly
// at the footer with exactly its record count — as scanSegment holds a v9
// one; it fails loudly otherwise.
func decodeV8Segment(data []byte, path string) ([]run, error) {
	corrupt := func(format string, args ...any) ([]run, error) {
		return nil, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < len(segMagicV8)+segFooterSize {
		return corrupt("is %d bytes", len(data))
	}
	var runs []run
	var ids sketch.IDBuilder
	var keys sketch.Words
	var shape sketch.Shape // the last run's
	seal := func() {
		if n := len(runs); n > 0 {
			runs[n-1].IDs, runs[n-1].Keys = ids.IDs(), keys
		}
	}
	total := 0
	footer := len(data) - segFooterSize
	end, err := eachFrameV8(data, len(segMagicV8), footer, func(_ int, payload []byte) error {
		n := 0
		return eachRunV8(payload, func(h runHeader, subset bitvec.Subset, idCol, words []byte) error {
			if n++; n > 1 {
				return errors.New("a segment frame holds one run")
			}
			tag, r := subset.Key(), len(runs)
			switch {
			case r > 0 && tag == runs[r-1].tag && h.shape == shape:
				// The next frame of a run past maxFrameBytes.
			case r > 0 && (tag < runs[r-1].tag || tag == runs[r-1].tag && h.shape < shape):
				return errors.New("run out of subset order")
			default:
				seal()
				runs, ids, keys, shape = append(runs, run{tag: tag, Run: sketch.Run{Subset: subset}}), sketch.IDBuilder{}, sketch.Words{}, h.shape
			}
			total += h.count
			var err error
			keys, err = decodeRun(h, idCol, words, &ids, keys)
			return err
		})
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
	seal()
	return runs, nil
}

// v8Shard is what converting a shard writes, read before anything is:
// its segments' runs and its log's as merge sources, oldest first, the
// segments to remove once the merge is written, and whether the log is to
// be replaced by an empty v9 one after that.
type v8Shard struct {
	dir  string
	srcs []runSource
	segs []segmentMeta
	log  bool
	seq  uint64 // the merged segment's, above every other
	size int    // the bytes read, about the merged segment's size
}

// readV8Shard reads the shard directory dir for its conversion, writing
// nothing, and returns nil if none of its files is v8.  Each segment is
// read by its magic, v8 or v9 — a crash mid-conversion leaves both — so a
// conversion carries on from whatever a shard holds: a v8 segment decoded
// whole, a v9 one read as Open reads it.  A v8 log is read as its replay
// read it: its valid prefix, a torn tail left out.
func readV8Shard(dir string) (_ *v8Shard, err error) {
	segs, _, err := listSegments(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sh := &v8Shard{dir: dir, segs: segs, seq: 1}
	defer func() {
		if err != nil {
			closeSources(sh.srcs)
		}
	}()
	v8 := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		sh.size += len(data)
		if bytes.HasPrefix(data, segMagicV8[:]) {
			runs, err := decodeV8Segment(data, seg.path)
			if err != nil {
				return nil, err
			}
			sh.srcs, v8 = append(sh.srcs, runSource{log: runs}), true
		} else {
			runs, err := scanSegment(data, seg.path)
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
	data, err := os.ReadFile(filepath.Join(dir, walName))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, err
	case bytes.HasPrefix(data, walMagicV8[:]):
		set := newRunSet()
		scanLog(logV9(data), set)
		sh.srcs, sh.log, v8 = append(sh.srcs, runSource{log: set.normalized()}), true, true
		sh.size += len(data)
	}
	if !v8 {
		closeSources(sh.srcs)
		return nil, nil
	}
	return sh, nil
}

// write converts the shard: its records, merged newest-wins, become one
// v9 segment, newer than every other; then the segments they came from
// are removed, and a v8 log is replaced by an empty v9 one.  Each step is
// a fsynced file renamed into place or a removal, so a crash leaves the
// shard as it was, or holding its records twice — the new segment beside
// the files it came from — which the next Open's conversion merges again
// and deduplication absorbs.
func (sh *v8Shard) write() error {
	defer closeSources(sh.srcs)
	failed := func(err error) error {
		return fmt.Errorf("store: converting %s to format v9: %w", sh.dir, err)
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
	for _, seg := range sh.segs {
		if err := removeFile(seg.path); err != nil {
			return failed(err)
		}
	}
	if sh.log {
		if err := writeFileAtomic(filepath.Join(sh.dir, walName), walMagic[:]); err != nil {
			return failed(err)
		}
	}
	return syncDir(sh.dir)
}

// convertV8 converts a v8 directory — format is its manifest's marker,
// manifestV8 or manifestConverting — to v9, shard by shard, and marks it
// v9.  Every shard is read first, writing nothing, so a directory refused
// in any shard — a corrupt segment — is left as it was; then the manifest
// is marked converting, each shard is written in turn, and the manifest
// is marked v9.
func convertV8(dir string, shards int, format string) error {
	conv := make([]*v8Shard, shards)
	err := eachShard(shards, func(i int) (err error) {
		conv[i], err = readV8Shard(filepath.Join(dir, shardDirName(i)))
		return err
	})
	if err == nil && format != manifestConverting {
		err = writeManifest(dir, shards, manifestConverting, true)
	}
	for _, sh := range conv {
		switch {
		case sh == nil:
		case err != nil:
			closeSources(sh.srcs)
		default:
			err = sh.write()
		}
	}
	if err != nil {
		return err
	}
	return writeManifest(dir, shards, manifestFormat, true)
}
