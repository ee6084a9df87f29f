package store

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// segIndex is one segment's index, kept in memory for the segment's
// lifetime: a directory of its runs and the first id of every block — an
// eighth of a byte per record.  It is never stored: the writer has it in
// hand and Open derives it from the data area it validates anyway.
type segIndex struct {
	runs []segRun // in tag order
	// firstIDs is the sparse id index: the first id of every block, run
	// after run (run r's blocks start at r.block0).
	firstIDs []bitvec.UserID
}

// segRun locates one run of a segment.
type segRun struct {
	tag    string
	subset bitvec.Subset
	off    uint64 // file offset of the run's first block
	count  int
	width  int
	first  int // ordinal of the run's first record within the segment
	block0 int // index of the run's first block in firstIDs
}

// records is the segment's record count.
func (x *segIndex) records() uint64 {
	if len(x.runs) == 0 {
		return 0
	}
	last := x.runs[len(x.runs)-1]
	return uint64(last.first + last.count)
}

// find returns the run of the subset with the given tag.
func (x *segIndex) find(tag string) (segRun, bool) {
	i, ok := slices.BinarySearchFunc(x.runs, tag, func(r segRun, tag string) int { return strings.Compare(r.tag, tag) })
	if !ok {
		return segRun{}, false
	}
	return x.runs[i], true
}

// readBlocks reads and decodes the blocks of run r that hold its records
// [lo, hi) — lo a block boundary, hi another or the run's count — into
// ids and keys, reusing raw as the read buffer.  What the file holds there
// must pass every block checksum, ascend, and start each block on the id
// the index has for it: the index was checked against this file at open,
// so a disagreement now is corruption, reported loudly.
func readBlocks(f *os.File, x *segIndex, r segRun, lo, hi int, raw []byte, ids []bitvec.UserID, keys sketch.Words) ([]byte, []bitvec.UserID, sketch.Words, error) {
	start, size := blocksLen(lo, r.width), blocksLen(hi, r.width)-blocksLen(lo, r.width)
	raw = slices.Grow(raw[:0], size)[:size]
	if _, err := f.ReadAt(raw, int64(r.off)+int64(start)); err != nil {
		return raw, ids, keys, fmt.Errorf("%w: %s: reading subset %v records [%d,%d): %v", ErrSegmentCorrupt, f.Name(), r.subset, lo, hi, err)
	}
	base := len(ids)
	ids, keys, err := decodeBlocks(raw, hi-lo, r.width, ids, keys)
	if err == nil && !strictlyAscending(ids[base:]) {
		err = fmt.Errorf("ids out of order")
	}
	for at := lo; err == nil && at < hi; at += segBlockRecords {
		if want := x.firstIDs[r.block0+at/segBlockRecords]; ids[base+at-lo] != want {
			err = fmt.Errorf("block %d starts at user %d, the index says %d", at/segBlockRecords, ids[base+at-lo], want)
		}
	}
	if err != nil {
		return raw, ids, keys, fmt.Errorf("%w: %s: subset %v records [%d,%d): %v", ErrSegmentCorrupt, f.Name(), r.subset, lo, hi, err)
	}
	return raw, ids, keys, nil
}

// readSegmentRange returns up to n records of the segment starting at
// record ordinal from, reading only the blocks that hold them.
func readSegmentRange(meta segmentMeta, m *metrics, from, n int) ([]sketch.Published, error) {
	x := meta.idx
	total := int(x.records())
	if n <= 0 || from >= total {
		return nil, nil
	}
	f, err := os.Open(meta.path)
	if err != nil {
		return nil, err // a compacted-away segment: the caller re-seeks
	}
	defer f.Close()
	if m != nil {
		m.indexSeeks.Inc()
	}
	n = min(n, total-from)
	out := make([]sketch.Published, 0, n)
	var raw []byte
	var ids []bitvec.UserID
	var keys sketch.Words
	// The run holding ordinal from: the last one starting at or before it.
	ri := sort.Search(len(x.runs), func(i int) bool { return x.runs[i].first > from }) - 1
	for ; len(out) < n; ri++ {
		r := x.runs[ri]
		lo := from - r.first
		hi := min(r.count, lo+n-len(out))
		blockLo := lo / segBlockRecords * segBlockRecords
		blockHi := min(r.count, (hi+segBlockRecords-1)/segBlockRecords*segBlockRecords)
		if raw, ids, keys, err = readBlocks(f, x, r, blockLo, blockHi, raw, ids[:0], keys.Reset(r.width)); err != nil {
			return nil, err
		}
		for i := lo - blockLo; i < hi-blockLo; i++ {
			out = append(out, sketch.Published{ID: ids[i], Subset: r.subset, S: keys.Sketch(i)})
		}
		from = r.first + r.count
	}
	return out, nil
}

// lookupSegment finds user id's record for the subset tagged tag in one
// segment: the run directory, a binary search of the run's block first-ids
// — both in memory, so a subset or an id range the segment does not hold
// costs no read — and a one-block read.
func lookupSegment(meta segmentMeta, m *metrics, id bitvec.UserID, tag string) (sketch.Published, bool, error) {
	x := meta.idx
	r, ok := x.find(tag)
	if !ok {
		return sketch.Published{}, false, nil
	}
	blocks := x.firstIDs[r.block0 : r.block0+(r.count+segBlockRecords-1)/segBlockRecords]
	// The last block starting at or below id; an id below the run's first
	// is absent.
	b := sort.Search(len(blocks), func(i int) bool { return blocks[i] > id }) - 1
	if b < 0 {
		return sketch.Published{}, false, nil
	}
	f, err := os.Open(meta.path)
	if err != nil {
		return sketch.Published{}, false, err
	}
	defer f.Close()
	if m != nil {
		m.indexSeeks.Inc()
	}
	lo := b * segBlockRecords
	_, ids, keys, err := readBlocks(f, x, r, lo, min(r.count, lo+segBlockRecords), nil, nil, sketch.Words{})
	if err != nil {
		return sketch.Published{}, false, err
	}
	i, ok := slices.BinarySearch(ids, id)
	if !ok {
		return sketch.Published{}, false, nil
	}
	return sketch.Published{ID: id, Subset: r.subset, S: keys.Sketch(i)}, true, nil
}
