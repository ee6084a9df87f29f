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

// Format v7 is read here and nowhere else, and only to be converted:
// convertV7 reads a v7 directory's segments and logs and writes them back
// as v8 segments before any shard serves, and nothing writes v7.
//
// A v7 file holds the frames a v8 one does, under its own magic —
// "SKSEG\x00\x00\x07" for a segment, "SKWAL\x00\x00\x06" for a log — but a
// frame's payload opens with a 4-byte run count, and a run's header is
//
//	4 bytes big-endian tag length | the subset's tag (bitvec.Subset.Tag)
//	4 bytes big-endian record count (≥ 1)
//	1 byte  the shape, ℓ
//
// before its id column and its words, each run carrying its own ids.
var (
	segMagicV7 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 7}
	walMagicV7 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 6}
)

const runHeaderFixedV7 = 4 + 4 + 1 // tag length, record count, shape

// parseRunHeaderV7 reads the v7 run header at the front of src, held to
// the bounds parseRunHeader holds a v8 one to; its name is the tag.
func parseRunHeaderV7(src []byte) (runHeader, error) {
	if len(src) < runHeaderFixedV7 {
		return runHeader{}, fmt.Errorf("run header truncated at %d bytes", len(src))
	}
	tagLen := uint64(binary.BigEndian.Uint32(src))
	if tagLen > uint64(len(src)-runHeaderFixedV7) {
		return runHeader{}, fmt.Errorf("run tag of %d bytes overruns its %d-byte buffer", tagLen, len(src))
	}
	h := runHeader{name: src[4 : 4+tagLen], size: runHeaderFixedV7 + int(tagLen)}
	count := uint64(binary.BigEndian.Uint32(src[4+tagLen:]))
	if h.shape = sketch.Shape(src[h.size-1]); h.shape == 0 || h.shape > sketch.MaxLength {
		return runHeader{}, fmt.Errorf("run word shape %d", h.shape)
	}
	rest := uint64(len(src) - h.size)
	if count == 0 || uint64(sketch.MinIDBlocksLen(int(count))+wordsLen(int(count), h.shape)) > rest {
		return runHeader{}, fmt.Errorf("run of %d records in %d bytes", count, rest)
	}
	h.count = int(count)
	return h, nil
}

// eachRunV7 is eachRun over a v7 frame payload.
func eachRunV7(payload []byte, fn func(h runHeader, ids, words []byte) error) error {
	if len(payload) < 4 {
		return errors.New("frame truncated")
	}
	runs, rest := binary.BigEndian.Uint32(payload), payload[4:]
	for i := uint32(0); i < runs; i++ {
		h, err := parseRunHeaderV7(rest)
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
		if err := fn(h, rest[h.size:h.size+idsLen], rest[h.size+idsLen:end]); err != nil {
			return err
		}
		rest = rest[end:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d bytes after the frame's last run", len(rest))
	}
	return nil
}

// logV8 writes the frames of a v7 log image as a v8 log's, run for run,
// up to the first frame that is not whole, checksum-clean and parsed, so
// that scanLog reads from it what the v7 log's replay read: its valid
// prefix.  A frame whose columns are malformed is written as it is, and
// ends the v8 log's valid prefix as it ended the v7 one's.
func logV8(data []byte) []byte {
	out := append(make([]byte, 0, len(data)), walMagic[:]...)
	eachFrame(data, len(walMagicV7), len(data), func(_ int, payload []byte) error {
		buf, frame := openFrame(out)
		err := eachRunV7(payload, func(h runHeader, ids, words []byte) error {
			subset, err := bitvec.ParseTag(h.name)
			if err != nil {
				return err
			}
			buf = append(append(appendRunHeader(buf, subset, h.count, h.shape, false), ids...), words...)
			return nil
		})
		switch {
		case err != nil:
			return err
		case len(buf) > frame+walFrameHeader:
			closeFrame(buf, frame)
			out = buf
		}
		return nil
	})
	return out
}

// decodeV7Segment returns the runs of a v7 segment image, trusting nothing
// but its bytes — every checksum, the run order, every id block and its
// ascent, every word's shape and pad bits, and the frames ending exactly
// at the footer with exactly its record count — as scanSegment holds a v8
// one; it fails loudly otherwise.
func decodeV7Segment(data []byte, path string) ([]run, error) {
	corrupt := func(format string, args ...any) ([]run, error) {
		return nil, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < len(segMagicV7)+segFooterSize {
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
	end, err := eachFrame(data, len(segMagicV7), footer, func(_ int, payload []byte) error {
		if len(payload) < 4 || binary.BigEndian.Uint32(payload) != 1 {
			return errors.New("a segment frame holds one run")
		}
		return eachRunV7(payload, func(h runHeader, idCol, words []byte) error {
			tag, n := string(h.name), len(runs)
			switch {
			case n > 0 && tag == runs[n-1].tag && h.shape == shape:
				// The next frame of a run past maxFrameBytes.
			case n > 0 && (tag < runs[n-1].tag || tag == runs[n-1].tag && h.shape < shape):
				return errors.New("run out of subset order")
			default:
				subset, err := bitvec.ParseTag(h.name)
				if err != nil {
					return err
				}
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

// v7Shard is what converting a shard writes, read before anything is:
// its segments' runs and its log's as merge sources, oldest first, the
// segments to remove once the merge is written, and whether the log is to
// be replaced by an empty v8 one after that.
type v7Shard struct {
	dir  string
	srcs []runSource
	segs []segmentMeta
	log  bool
	seq  uint64 // the merged segment's, above every other
	size int    // the bytes read, about the merged segment's size
}

// readV7Shard reads the shard directory dir for its conversion, writing
// nothing, and returns nil if none of its files is v7.  Each segment is
// read by its magic, v7 or v8 — a crash mid-conversion leaves both — so a
// conversion carries on from whatever a shard holds: a v7 segment decoded
// whole, a v8 one read as Open reads it.  A v7 log is read as its replay
// read it: its valid prefix, a torn tail left out.
func readV7Shard(dir string) (_ *v7Shard, err error) {
	segs, _, err := listSegments(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sh := &v7Shard{dir: dir, segs: segs, seq: 1}
	defer func() {
		if err != nil {
			closeSources(sh.srcs)
		}
	}()
	v7 := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		sh.size += len(data)
		if bytes.HasPrefix(data, segMagicV7[:]) {
			runs, err := decodeV7Segment(data, seg.path)
			if err != nil {
				return nil, err
			}
			sh.srcs, v7 = append(sh.srcs, runSource{log: runs}), true
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
	case bytes.HasPrefix(data, walMagicV7[:]):
		set := newRunSet()
		scanLog(logV8(data), set)
		sh.srcs, sh.log, v7 = append(sh.srcs, runSource{log: set.normalized()}), true, true
		sh.size += len(data)
	}
	if !v7 {
		closeSources(sh.srcs)
		return nil, nil
	}
	return sh, nil
}

// write converts the shard: its records, merged newest-wins, become one
// v8 segment, newer than every other; then the segments they came from
// are removed, and a v7 log is replaced by an empty v8 one.  Each step is
// a fsynced file renamed into place or a removal, so a crash leaves the
// shard as it was, or holding its records twice — the new segment beside
// the files it came from — which the next Open's conversion merges again
// and deduplication absorbs.
func (sh *v7Shard) write() error {
	defer closeSources(sh.srcs)
	failed := func(err error) error {
		return fmt.Errorf("store: converting %s to format v8: %w", sh.dir, err)
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

// convertV7 converts a v7 directory — format is its manifest's marker,
// manifestV7 or manifestConverting — to v8, shard by shard, and marks it
// v8.  Every shard is read first, writing nothing, so a directory refused
// in any shard — a corrupt segment — is left as it was; then the manifest
// is marked converting, each shard is written in turn, and the manifest
// is marked v8.
func convertV7(dir string, shards int, format string) error {
	conv := make([]*v7Shard, shards)
	err := eachShard(shards, func(i int) (err error) {
		conv[i], err = readV7Shard(filepath.Join(dir, shardDirName(i)))
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
