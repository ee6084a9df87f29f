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
// lifetime: a directory of its runs and the first id and file offset of
// every block — a quarter of a byte per record.  It is never stored: the
// writer has it in hand and Open derives it from the data area it
// validates anyway.
type segIndex struct {
	runs []segRun // in tag order
	// firstIDs is the sparse id index, the first id of every block, and
	// blockOffs where each block starts in the file, both run after run
	// (run r's blocks start at r.block0).
	firstIDs  []bitvec.UserID
	blockOffs []int64
}

// segRun locates one run of a segment.
type segRun struct {
	tag    string
	subset bitvec.Subset
	end    int64 // file offset past the run's last block
	count  int
	shape  sketch.Shape // the shape of the run's words
	first  int          // ordinal of the run's first record within the segment
	block0 int          // index of the run's first block in firstIDs and blockOffs
}

// blocks is how many blocks run r has.
func (r segRun) blocks() int { return (r.count + segBlockRecords - 1) / segBlockRecords }

// span returns where the blocks holding records [lo, hi) of run r — lo a
// block boundary, hi another or the run's count — start and end in the file.
func (x *segIndex) span(r segRun, lo, hi int) (start, end int64) {
	start, end = x.blockOffs[r.block0+lo/segBlockRecords], r.end
	if b := (hi + segBlockRecords - 1) / segBlockRecords; b < r.blocks() {
		end = x.blockOffs[r.block0+b]
	}
	return start, end
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
// [lo, hi) — lo a block boundary, hi another or the run's count — reusing
// raw as the read buffer and keys' room.  What the file holds there must
// pass every block checksum, ascend, and start each block on the id the
// index has for it: the index was checked against this file at open, so a
// disagreement now is corruption, reported loudly.
func readBlocks(f *os.File, x *segIndex, r segRun, lo, hi int, raw []byte, keys sketch.Words) ([]byte, sketch.Run, error) {
	corrupt := func(err error) ([]byte, sketch.Run, error) {
		return raw, sketch.Run{}, fmt.Errorf("%w: %s: subset %v records [%d,%d): %v", ErrSegmentCorrupt, f.Name(), r.subset, lo, hi, err)
	}
	start, end := x.span(r, lo, hi)
	raw = slices.Grow(raw[:0], int(end-start))[:end-start]
	if _, err := f.ReadAt(raw, start); err != nil {
		return corrupt(fmt.Errorf("reading: %v", err))
	}
	var ids sketch.IDBuilder
	ids.Grow(hi-lo, len(raw))
	keys = keys.Reset()
	src := raw
	for at := lo; at < hi; at += segBlockRecords {
		size, first, more, err := decodeBlock(src, min(hi-at, segBlockRecords), r.shape, &ids, keys)
		if err != nil {
			return corrupt(err)
		}
		if want := x.firstIDs[r.block0+at/segBlockRecords]; first != want {
			return corrupt(fmt.Errorf("block %d starts at user %d, the index says %d", at/segBlockRecords, first, want))
		}
		src, keys = src[size:], more
	}
	if len(src) != 0 {
		return corrupt(fmt.Errorf("%d bytes after the last block", len(src)))
	}
	return raw, sketch.Run{Subset: r.subset, IDs: ids.IDs(), Keys: keys}, nil
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
	var part sketch.Run
	// The run holding ordinal from: the last one starting at or before it.
	ri := sort.Search(len(x.runs), func(i int) bool { return x.runs[i].first > from }) - 1
	for ; len(out) < n; ri++ {
		r := x.runs[ri]
		lo := from - r.first
		hi := min(r.count, lo+n-len(out))
		blockLo := lo / segBlockRecords * segBlockRecords
		blockHi := min(r.count, (hi+segBlockRecords-1)/segBlockRecords*segBlockRecords)
		if raw, part, err = readBlocks(f, x, r, blockLo, blockHi, raw, part.Keys); err != nil {
			return nil, err
		}
		out = part.Slice(lo-blockLo, hi-blockLo).AppendTo(out)
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
	blocks := x.firstIDs[r.block0 : r.block0+r.blocks()]
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
	_, block, err := readBlocks(f, x, r, lo, min(r.count, lo+segBlockRecords), nil, sketch.Words{})
	if err != nil {
		return sketch.Published{}, false, err
	}
	i, ok := block.IDs.Find(id)
	if !ok {
		return sketch.Published{}, false, nil
	}
	return block.Record(i), true, nil
}
