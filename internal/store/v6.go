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

// Segment format v6 is read here and nowhere else, and only to be
// converted: convertV6 reads a v6 directory's segments and writes them
// back as v7 before any shard serves, and nothing writes v6.  The log is
// the same in both, and stays as it is.
//
// A v6 segment holds the runs a v7 one does, cut into blocks:
//
//	16 byte header: magic "SKSEG\x00\x00\x06" | 8-byte record count
//	data area, per run:
//	  run header | 4-byte checksum of the header | the run's columns cut
//	  into blocks of 64 records (the last one shorter): the block of the
//	  id column, the records' words, 4-byte checksum of the block
//	12 byte footer: 4-byte checksum of nothing | 8-byte data-area end
//
// Whatever lies between the data area's end and the footer is skipped.
var segMagicV6 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 6}

const (
	segHeaderSizeV6 = 16 // magic + record count
	segFooterSizeV6 = 12 // checksum of the empty section + data-area end
)

// decodeBlockV6 appends the v6 block of m records at the front of src —
// input — to ids and keys and returns its size.  It verifies the block's
// checksum, that its words are what a column of the run's shape holds of
// valid sketches and that the ids ascend from what ids already holds; on
// an error what was appended is undefined and the caller drops both
// columns.
func decodeBlockV6(src []byte, m int, shape sketch.Shape, ids *sketch.IDBuilder, keys sketch.Words) (int, sketch.Words, error) {
	idsLen, err := sketch.IDBlocksLen(src, m)
	if err != nil {
		return 0, keys, err
	}
	end := idsLen + wordsLen(m, shape)
	if len(src) < end+4 {
		return 0, keys, fmt.Errorf("block of %d bytes in %d", end+4, len(src))
	}
	if checksum(src[:end]) != binary.BigEndian.Uint32(src[end:]) {
		return 0, keys, errors.New("block fails checksum")
	}
	if keys, err = keys.AppendBitsFrom(src[idsLen:end], shape, m); err != nil {
		return 0, keys, err
	}
	_, err = ids.AppendBlock(src[:idsLen], m)
	return end + 4, keys, err
}

// decodeV6Segment returns the runs of a v6 segment image, trusting nothing
// but its bytes: every checksum, the run order, every id block and its
// ascent, every word's shape and pad bits, and the walk ending exactly at
// the data area's end with exactly the header's record count; it fails
// loudly otherwise.
func decodeV6Segment(data []byte, path string) ([]run, error) {
	corrupt := func(format string, args ...any) ([]run, error) {
		return nil, fmt.Errorf("%w: %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < segHeaderSizeV6+segFooterSizeV6 {
		return corrupt("is %d bytes", len(data))
	}
	count := binary.BigEndian.Uint64(data[len(segMagicV6):])
	areaEnd := binary.BigEndian.Uint64(data[len(data)-8:])
	if areaEnd < segHeaderSizeV6 || areaEnd > uint64(len(data)-segFooterSizeV6) {
		return corrupt("data area end %d out of range", areaEnd)
	}
	area := data[:areaEnd]
	var runs []run
	off, total := segHeaderSizeV6, uint64(0)
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
		if n := len(runs); n > 0 && (tag < runs[n-1].tag || tag == runs[n-1].tag && h.shape <= runs[n-1].Keys.Shape()) {
			return corrupt("run at offset %d is out of subset order", off)
		}
		subset, err := bitvec.ParseTag(h.tag)
		if err != nil {
			return corrupt("run at offset %d: %v", off, err)
		}
		var ids sketch.IDBuilder
		var keys sketch.Words
		at := end + 4
		for left := h.count; left > 0; left -= sketch.IDBlockLen {
			size, more, err := decodeBlockV6(area[at:], min(left, sketch.IDBlockLen), h.shape, &ids, keys)
			if err != nil {
				return corrupt("run at offset %d: %v", off, err)
			}
			at, keys = at+size, more
		}
		runs = append(runs, run{tag: tag, Run: sketch.Run{Subset: subset, IDs: ids.IDs(), Keys: keys}})
		off, total = at, total+uint64(h.count)
	}
	if total != count {
		return corrupt("holds %d records, its header says %d", total, count)
	}
	return runs, nil
}

// v6Shard is what converting a shard writes, read before anything is:
// its segments' runs as merge sources, oldest first, and the segments to
// remove once the merge is written.
type v6Shard struct {
	dir  string
	srcs []runSource
	segs []segmentMeta
	seq  uint64 // the merged segment's, above every other
	size int    // the bytes read, about the merged segment's size
}

// readV6Shard reads the segments of the shard directory dir for its
// conversion, writing nothing, and returns nil if none of them is v6.
// Each is read by its magic, v6 or v7 — a crash mid-conversion leaves
// both — so a conversion carries on from whatever a shard holds.  A v6
// segment is decoded whole, a v7 one read as Open reads it.
func readV6Shard(dir string) (_ *v6Shard, err error) {
	segs, _, err := listSegments(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sh := &v6Shard{dir: dir, segs: segs}
	defer func() {
		if err != nil {
			closeSources(sh.srcs)
		}
	}()
	v6 := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		sh.size += len(data)
		if bytes.HasPrefix(data, segMagicV6[:]) {
			runs, err := decodeV6Segment(data, seg.path)
			if err != nil {
				return nil, err
			}
			sh.srcs, v6 = append(sh.srcs, runSource{log: runs}), true
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
	if !v6 {
		closeSources(sh.srcs)
		return nil, nil
	}
	return sh, nil
}

// write converts the shard: its segments' records, merged newest-wins,
// become one v7 segment, newer than every other, and then the segments
// they came from are removed; the log is newer than all of them, and
// stays.  Each step is a fsynced file renamed into place or a removal, so
// a crash leaves the shard as it was, or holding its records twice — the
// new segment beside the files it came from — which the next Open's
// conversion merges again and deduplication absorbs.
func (sh *v6Shard) write() error {
	defer closeSources(sh.srcs)
	failed := func(err error) error {
		return fmt.Errorf("store: converting %s to format v7: %w", sh.dir, err)
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
	return syncDir(sh.dir)
}

// convertV6 converts a directory of v6 segments — format is its
// manifest's marker, manifestV6 or manifestConverting — to v7, shard by
// shard, and marks it v7.  Every shard is read first, writing nothing, so
// a directory refused in any shard — a corrupt segment — is left as it
// was; then the manifest is marked converting, each shard is written in
// turn, and the manifest is marked v7.
func convertV6(dir string, shards int, format string) error {
	conv := make([]*v6Shard, shards)
	err := eachShard(shards, func(i int) (err error) {
		conv[i], err = readV6Shard(filepath.Join(dir, shardDirName(i)))
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
