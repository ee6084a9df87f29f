package store

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// segIndex is one segment's run directory, kept in memory for the
// segment's lifetime: what each run holds and where it lies in the file,
// in (tag, length) order.  It is never stored: the writer has it in hand
// and Open derives it from the data area it validates anyway.  Every read
// of a segment reads whole runs through it (readRun).
type segIndex []segRun

// segRun locates one run of a segment.
type segRun struct {
	tag    string
	subset bitvec.Subset
	count  int
	shape  sketch.Shape // the shape of the run's words
	// start and end bound the run's blocks in the file: the byte after its
	// header's checksum, and the byte past its last block.
	start, end int64
}

// records is the segment's record count.
func (x segIndex) records() uint64 {
	n := 0
	for _, r := range x {
		n += r.count
	}
	return uint64(n)
}

// find returns the runs of the subset with the given tag, one a length.
func (x segIndex) find(tag string) segIndex {
	i, _ := slices.BinarySearchFunc(x, tag, func(r segRun, tag string) int { return strings.Compare(r.tag, tag) })
	n := i
	for n < len(x) && x[n].tag == tag {
		n++
	}
	return x[i:n]
}

// readRun reads and decodes run r whole with one read, reusing raw as the
// read buffer and keys' room.  What the file holds there must pass every
// block checksum, hold valid words, ascend from block to block, and end
// exactly at the run's end with exactly its count: the directory was
// checked against this file at open, so a disagreement now is corruption,
// reported loudly.
func readRun(f *os.File, r segRun, raw []byte, keys sketch.Words) ([]byte, sketch.Run, error) {
	corrupt := func(err error) ([]byte, sketch.Run, error) {
		return raw, sketch.Run{}, fmt.Errorf("%w: %s: subset %v: %v", ErrSegmentCorrupt, f.Name(), r.subset, err)
	}
	raw = slices.Grow(raw[:0], int(r.end-r.start))[:r.end-r.start]
	if _, err := f.ReadAt(raw, r.start); err != nil {
		return corrupt(fmt.Errorf("reading: %v", err))
	}
	var ids sketch.IDBuilder
	ids.Grow(r.count, len(raw))
	keys = keys.Reset()
	src := raw
	for at := 0; at < r.count; at += segBlockRecords {
		size, more, err := decodeBlock(src, min(r.count-at, segBlockRecords), r.shape, &ids, keys)
		if err != nil {
			return corrupt(fmt.Errorf("block %d: %v", at/segBlockRecords, err))
		}
		src, keys = src[size:], more
	}
	if len(src) != 0 {
		return corrupt(fmt.Errorf("%d bytes after its %d records", len(src), r.count))
	}
	return raw, sketch.Run{Subset: r.subset, IDs: ids.IDs(), Keys: keys}, nil
}
