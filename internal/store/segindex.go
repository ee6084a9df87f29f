package store

import (
	"bytes"
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
	// start and end bound the run's frames in the file: the first byte of
	// its first, and the byte past its last.
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

// readRun reads run r's frames with one read, reusing raw as the read
// buffer and keys' room, and decodes them as Open did (decodeRun).  They
// must be whole, checksum-clean and hold r's subset and length, and
// exactly its count: the directory was checked against this file at open,
// so a disagreement now is corruption, reported loudly.
func readRun(f *os.File, r segRun, raw []byte, keys sketch.Words) ([]byte, sketch.Run, error) {
	corrupt := func(err error) ([]byte, sketch.Run, error) {
		return raw, sketch.Run{}, fmt.Errorf("%w: %s: subset %v: %v", ErrSegmentCorrupt, f.Name(), r.subset, err)
	}
	raw = slices.Grow(raw[:0], int(r.end-r.start))[:r.end-r.start]
	if _, err := f.ReadAt(raw, r.start); err != nil {
		return corrupt(fmt.Errorf("reading: %v", err))
	}
	var ids sketch.IDBuilder
	var nameBuf [32]byte
	name := r.subset.AppendCompact(nameBuf[:0])
	keys = keys.Reset()
	end, err := eachFrame(raw, 0, len(raw), func(_ int, payload []byte) error {
		h, idCol, words, err := oneRun(payload)
		switch {
		case err != nil:
			return err
		case !bytes.Equal(h.name, name) || h.shape != r.shape:
			return fmt.Errorf("a frame of %x at length %d", h.name, h.shape)
		case ids.Len()+h.count > r.count:
			return fmt.Errorf("more than its %d records", r.count)
		}
		// A segment cuts a run's frames at whole id blocks, and the builder
		// takes each block as it stands, so the frames' id columns are the
		// column's bytes: room for them is all it needs.
		ids.Grow(h.count, len(idCol))
		keys, err = decodeRun(h, idCol, words, &ids, keys)
		return err
	})
	switch {
	case err != nil:
		return corrupt(fmt.Errorf("frame at %d: %v", r.start+int64(end), err))
	case end != len(raw) || ids.Len() != r.count:
		return corrupt(fmt.Errorf("%d of its %d bytes are whole frames, of %d of its %d records", end, len(raw), ids.Len(), r.count))
	}
	return raw, sketch.Run{Subset: r.subset, IDs: ids.IDs(), Keys: keys}, nil
}
