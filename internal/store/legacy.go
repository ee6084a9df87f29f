package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// Before v3 the store framed every record on its own, subset tag and all:
//
//	log:        per record, 4-byte length | 4-byte CRC-32 (IEEE) of the
//	            payload | wire.EncodePublished payload; no magic
//	v1 segment: magic "SKSEG\x00\x00\x01" | 4-byte count | per record,
//	            4-byte length | payload | … | 4-byte IEEE sum of the file
//	v2 segment: magic "SKSEG\x00\x00\x02" | 4-byte count | per record,
//	            4-byte length | 4-byte IEEE sum | payload | … | index
//	            section | 16-byte footer holding the index's offset
//
// Nothing writes these any more.  Open rewrites what it finds of them as
// v3 before the store serves, through the one linear decoder below; no
// other code reads them.
var (
	segMagicV1 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 1}
	segMagicV2 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 2}
)

// decodeLegacyFrames adds the records framed in data to set, at most limit
// of them, and returns how many frames and bytes it decoded before the
// data ended, the limit was reached, or a frame broke the framing — in
// which case why says how.
func decodeLegacyFrames(data []byte, sums bool, limit int, set *runSet) (frames, size int, why error) {
	header := 4
	if sums {
		header = 8
	}
	var dec wire.PublishedDecoder
	for frames < limit && size < len(data) {
		rest := data[size:]
		if len(rest) < header {
			return frames, size, errors.New("frame header truncated")
		}
		// Compare in int64: a length near 4 GiB must not wrap.
		n := int64(binary.BigEndian.Uint32(rest))
		if n > maxRecordSize || int64(len(rest)-header) < n {
			return frames, size, fmt.Errorf("frame of %d bytes overruns the file", n)
		}
		payload := rest[header : header+int(n)]
		if sums && crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:]) {
			return frames, size, errors.New("frame fails checksum")
		}
		p, err := dec.Decode(payload)
		if err != nil {
			return frames, size, fmt.Errorf("frame decode: %v", err)
		}
		set.add(p)
		frames, size = frames+1, size+header+int(n)
	}
	return frames, size, nil
}

// add appends one record to its subset's run.
func (s *runSet) add(p sketch.Published) {
	s.tagBuf = p.Subset.AppendTag(s.tagBuf[:0])
	r, err := s.runFor(s.tagBuf)
	if err != nil {
		panic(err) // the tag of a valid Subset parses
	}
	r.IDs, r.Keys = append(r.IDs, p.ID), r.Keys.Append(p.S.Pack())
}

// decodeLegacySegment decodes a v1 or v2 segment image.  Every declared
// record must decode: a segment was written atomically, so anything else
// is corruption.
func decodeLegacySegment(data []byte, path string) ([]run, error) {
	corrupt := func(format string, args ...any) ([]run, error) {
		return nil, fmt.Errorf("%w: legacy segment %s %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
	}
	const header = 12 // magic + record count
	if len(data) < header+4 {
		return corrupt("is %d bytes", len(data))
	}
	v2 := [8]byte(data[:8]) == segMagicV2
	count := int(binary.BigEndian.Uint32(data[8:]))
	frames := data[header : len(data)-4]
	if v2 {
		if len(data) < header+16 {
			return corrupt("lacks a footer")
		}
		indexOff := binary.BigEndian.Uint64(data[len(data)-12:])
		if indexOff < header || indexOff > uint64(len(data)-16) {
			return corrupt("index offset %d out of range", indexOff)
		}
		frames = data[header:indexOff]
	} else if crc32.ChecksumIEEE(data[:len(data)-4]) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		// v1 frames carry no sums of their own: the file's is the only wall.
		return corrupt("fails checksum")
	}
	set := newRunSet()
	n, size, why := decodeLegacyFrames(frames, v2, count, set)
	switch {
	case why != nil:
		return corrupt("record %d: %v", n, why)
	case n != count:
		return corrupt("holds %d records, its header says %d", n, count)
	case size != len(frames):
		return corrupt("has %d bytes after its last record", len(frames)-size)
	}
	return set.normalized(), nil
}

// readMagic returns the first 8 bytes of the file at path, fewer if it is
// shorter, none if it does not exist.
func readMagic(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var head [8]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return head[:n], nil
}

// upgradeLegacy rewrites whatever a pre-v3 version left in a shard
// directory, and nothing else: each v1 or v2 segment in place (same
// sequence number, so its age among the segments is kept) and a per-record
// log as one more segment, newer than all the others, beside a new empty
// log.  Every file goes through a fsynced temporary file and a rename, so
// a crash leaves each file old or new, and the next Open carries on; a
// crash between the log's segment and its new log leaves the records in
// both, which deduplication absorbs.  It reports whether it rewrote
// anything, in which case segs is stale.
func upgradeLegacy(dir string, segs []segmentMeta) (rewrote bool, err error) {
	nextSeq := uint64(1)
	for _, seg := range segs {
		nextSeq = max(nextSeq, seg.seq+1)
		head, err := readMagic(seg.path)
		if err != nil {
			return false, err
		}
		if !bytes.Equal(head, segMagicV1[:]) && !bytes.Equal(head, segMagicV2[:]) {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return false, err
		}
		runs, err := decodeLegacySegment(data, seg.path)
		if err != nil {
			return false, err
		}
		image, _ := encodeSegment(runs)
		if err := writeFileAtomic(seg.path, image); err != nil {
			return false, fmt.Errorf("store: upgrading %s: %w", seg.path, err)
		}
		rewrote = true
	}
	logPath := filepath.Join(dir, walName)
	head, err := readMagic(logPath)
	if err != nil {
		return false, err
	}
	if bytes.HasPrefix(walMagic[:], head) {
		// Absent, empty or v3 (whole, or torn at creation): not legacy.
		if rewrote {
			err = syncDir(dir)
		}
		return rewrote, err
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		return false, err
	}
	// A legacy log's valid prefix is its acknowledged records; what follows
	// is the torn tail of a crash, as it always was.
	set := newRunSet()
	if n, _, _ := decodeLegacyFrames(data, true, len(data), set); n > 0 {
		image, idx := encodeSegment(set.normalized())
		if _, err := writeSegment(dir, nextSeq, image, idx); err != nil {
			return false, fmt.Errorf("store: upgrading %s: %w", logPath, err)
		}
	}
	if err := writeFileAtomic(logPath, walMagic[:]); err != nil {
		return false, fmt.Errorf("store: upgrading %s: %w", logPath, err)
	}
	return true, syncDir(dir)
}
