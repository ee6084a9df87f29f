package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// The store has one record layout, the table's, and one sketch word, the
// table's too: a run is one subset's records as parallel columns of user
// ids and packed sketches (sketch.Words), under the subset's tag written
// once.  A commit window in the log, a segment on disk, a roll, a
// compaction and a replay all move runs; nothing in the store holds a
// sketch.Published per record, and nothing holds a sketch wider than the
// widest of its column.
//
// On disk a run is
//
//	4 bytes big-endian tag length | the subset tag (bitvec.Subset.Tag)
//	4 bytes big-endian record count (≥ 1)
//	1 byte  sketch width w (1..5)
//
// followed by its columns — count ids of 8 bytes, then count sketch words
// of w bytes, all big-endian.  A sketch word is sketch.Sketch.Pack — the
// key above a 5-bit length (sketch.MaxLength is 30) — so the benchmark
// deployment's 9-bit sketches take 2 bytes and a record 10; w is the width
// the run's widest word needs (sketch.Words.MinWidth).  The word column is
// a sketch.Words' own bytes: a column held at w is written with a copy and
// read back with a checked one.  The log writes a window's run whole; a
// segment cuts the columns into checksummed blocks (segment.go).
type run struct {
	tag string // the subset's canonical tag, Subset.Key: what runs sort by
	sketch.Run
}

const runHeaderFixed = 4 + 4 + 1 // tag length, record count, width

// castagnoli is the CRC-32C table; checksum is the one integrity function
// of every v3 structure the store writes — log frames, segment run
// headers, blocks and index sections.  (wire frames use the same
// polynomial; only the legacy decoder still reads IEEE sums.)
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// appendRunHeader appends a run's header.
func appendRunHeader(dst []byte, tag string, count, width int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tag)))
	dst = append(dst, tag...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(count))
	return append(dst, byte(width))
}

// runHeader is a parsed run header; tag aliases the parsed bytes.
type runHeader struct {
	tag   []byte
	count int
	width int
	size  int // bytes the header occupies
}

// columnsLen is the size of the header's columns when written whole.
func (h runHeader) columnsLen() int { return h.count * (8 + h.width) }

// parseRunHeader reads the run header at the front of src.  Every field
// is input: lengths are checked against what src holds before anything is
// sliced, and a count the bytes after the header could not hold is
// refused, so no later allocation can exceed the file it came from.
func parseRunHeader(src []byte) (runHeader, error) {
	if len(src) < runHeaderFixed {
		return runHeader{}, fmt.Errorf("run header truncated at %d bytes", len(src))
	}
	tagLen := uint64(binary.BigEndian.Uint32(src))
	if tagLen > uint64(len(src)-runHeaderFixed) {
		return runHeader{}, fmt.Errorf("run tag of %d bytes overruns its %d-byte buffer", tagLen, len(src))
	}
	h := runHeader{tag: src[4 : 4+tagLen], size: runHeaderFixed + int(tagLen)}
	count := uint64(binary.BigEndian.Uint32(src[4+tagLen:]))
	h.width = int(src[h.size-1])
	if h.width < 1 || h.width > sketch.MaxWordWidth {
		return runHeader{}, fmt.Errorf("run sketch width %d", h.width)
	}
	if count == 0 || count > uint64(len(src)-h.size)/uint64(8+h.width) {
		return runHeader{}, fmt.Errorf("run of %d records in %d bytes", count, len(src)-h.size)
	}
	h.count = int(count)
	return h, nil
}

// appendColumns appends the columns of ids and their words, width bytes a
// word.
func appendColumns(dst []byte, ids []bitvec.UserID, keys sketch.Words, width int) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, uint64(id))
	}
	return keys.AppendTo(dst, width)
}

// decodeColumns appends the n records whose columns src holds exactly to
// ids and keys, refusing — before it appends any — a word that is no valid
// sketch.
func decodeColumns(src []byte, n, width int, ids []bitvec.UserID, keys sketch.Words) ([]bitvec.UserID, sketch.Words, error) {
	if len(src) != n*(8+width) {
		return ids, keys, fmt.Errorf("%d-byte columns for %d records of width %d", len(src), n, width)
	}
	keys, err := keys.AppendEncoded(src[8*n:], width)
	if err != nil {
		return ids, keys, err
	}
	for i := 0; i < n; i++ {
		ids = append(ids, bitvec.UserID(binary.BigEndian.Uint64(src[8*i:])))
	}
	return ids, keys, nil
}

// strictlyAscending reports whether ids holds no duplicate and is sorted.
func strictlyAscending(ids []bitvec.UserID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// runSet gathers records in arrival order, one growing run per subset,
// and normalizes them: ids ascending within a run, the newest arrival
// winning a repeated id, runs in tag order.  It is how a log's windows
// (and a legacy file's records) become the runs everything else reads.
type runSet struct {
	byTag map[string]*growingRun
	// last short-cuts the lookup: consecutive runs of a window, and
	// consecutive records of a legacy file, mostly name the same subset.
	last   *growingRun
	tagBuf []byte
	// marks remembers how long each run was before the frame being added,
	// to take a malformed frame's records back out.
	marks []runMark
}

type runMark struct {
	r *growingRun
	n int
}

// growingRun is a run a runSet is still adding to; reserved counts the
// records about to be added and width is that of the widest run among
// them, so that the columns are sized once.
type growingRun struct {
	run
	reserved, width int
}

func newRunSet() *runSet { return &runSet{byTag: make(map[string]*growingRun)} }

// runFor returns the set's run for tag, parsing the subset the first time
// the tag is seen.
func (s *runSet) runFor(tag []byte) (*growingRun, error) {
	if s.last != nil && s.last.tag == string(tag) {
		return s.last, nil
	}
	r := s.byTag[string(tag)]
	if r == nil {
		subset, err := bitvec.ParseTag(tag)
		if err != nil {
			return nil, err
		}
		r = &growingRun{run: run{tag: string(tag), Run: sketch.Run{Subset: subset}}}
		s.byTag[r.tag] = r
	}
	s.last = r
	return r, nil
}

// normalized returns the set's runs, normalized.  The set must not be
// added to afterwards.
func (s *runSet) normalized() []run {
	out := make([]run, 0, len(s.byTag))
	for _, r := range s.byTag {
		if len(r.IDs) == 0 {
			continue // named only by a frame that was then refused
		}
		if !strictlyAscending(r.IDs) {
			r.IDs, r.Keys = sketch.SortByID(r.IDs, r.Keys)
			n := 0
			for i, id := range r.IDs {
				if i+1 < len(r.IDs) && r.IDs[i+1] == id {
					continue // a newer arrival for the same user follows
				}
				r.IDs[n] = id
				r.Keys.Set(n, r.Keys.At(i))
				n++
			}
			r.IDs, r.Keys = r.IDs[:n], r.Keys.Slice(0, n)
		}
		out = append(out, r.run)
	}
	slices.SortFunc(out, func(a, b run) int { return strings.Compare(a.tag, b.tag) })
	return out
}

// findRun returns the index of tag's run in runs, which are in tag order.
func findRun(runs []run, tag string) (int, bool) {
	return slices.BinarySearchFunc(runs, tag, func(r run, tag string) int { return strings.Compare(r.tag, tag) })
}

// mergeColumns merges id-ascending sources of one subset, oldest first,
// into fresh columns: ids ascending, the newest source winning an id two
// of them hold, the words at the width of the widest source.  The sources
// are left as they were.
func mergeColumns(srcs []sketch.Run) ([]bitvec.UserID, sketch.Words) {
	total, width := 0, 0
	// heap orders the unfinished sources by (next id, age): an entry is a
	// source's next id and its index in srcs, which is its age; next[src]
	// is how much of it has been merged.
	type cursor struct {
		id  bitvec.UserID
		src int
	}
	heap, next := make([]cursor, 0, len(srcs)), make([]int, len(srcs))
	for src, s := range srcs {
		if len(s.IDs) > 0 {
			heap = append(heap, cursor{s.IDs[0], src})
			total, width = total+len(s.IDs), max(width, s.Keys.Width())
		}
	}
	ids, keys := make([]bitvec.UserID, 0, total), sketch.MakeWords(width, 0, total)
	down := func(heap []cursor, i int) {
		for {
			least := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
				if heap[c].id < heap[least].id || (heap[c].id == heap[least].id && heap[c].src < heap[least].src) {
					least = c
				}
			}
			if least == i {
				return
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(heap, i)
	}
	for len(heap) > 1 {
		top := heap[0]
		s, at := srcs[top.src], next[top.src]
		// Equal ids leave the heap oldest first, so a repeat overwrites.
		if n := len(ids); n > 0 && ids[n-1] == top.id {
			keys.Set(n-1, s.Keys.At(at))
		} else {
			ids, keys = append(ids, top.id), keys.Append(s.Keys.At(at))
		}
		if at++; at < len(s.IDs) {
			heap[0].id = s.IDs[at]
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		next[top.src] = at
		down(heap, 0)
	}
	if len(heap) == 1 {
		s, at := srcs[heap[0].src], next[heap[0].src]
		if n := len(ids); n > 0 && ids[n-1] == s.IDs[at] {
			keys.Set(n-1, s.Keys.At(at))
			at++
		}
		ids, keys = append(ids, s.IDs[at:]...), keys.AppendWords(s.Keys.Slice(at, len(s.IDs)))
	}
	return ids, keys
}
