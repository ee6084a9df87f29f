package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// The store has one record layout, the table's, and one coding of each of
// its columns, the table's too: a run is one subset's records as parallel
// columns of user ids (sketch.IDs: blocks of 64 ids held as the differences
// between them) and packed sketches (sketch.Words), under the subset's tag
// written once.  A commit window in the log, a segment on disk, a roll, a
// compaction and a replay all move runs; nothing in the store holds a
// sketch.Published per record, a sketch in more bits than its column's
// shape gives it, or — outside the records of a log still in arrival
// order — an id at 8 bytes.
//
// On disk (format v5) a run is
//
//	4 bytes big-endian tag length | the subset tag (bitvec.Subset.Tag)
//	4 bytes big-endian record count (≥ 1)
//	1 byte  the word column's shape: the run's one sketch length ℓ, 1..30
//
// followed by its columns: the count ids as an id column — blocks of 64,
// each a width byte, a first id and the differences from id to id at that
// width, or the ids raw where they do not ascend (sketch/ids.go has the
// layout and the argument for a width per block) — and the count keys as
// the column holds them in memory, ℓ bits each, ⌈count·ℓ/8⌉ bytes, low bit
// first, the pad bits of the last byte zero: the paper's ⌈log log O(M)⌉-bit
// disclosure and nothing else, 9 bits for the benchmark deployment's
// sketches, 72 bytes for a block of 64.  Both columns are the table's own
// bits, written with a copy and read back with a checked one
// (sketch.IDBuilder.AppendBlock, sketch.Words.AppendBits and
// AppendBitsFrom, and nowhere else).  The log writes a window's run whole,
// ids in arrival order; a segment cuts the columns into checksummed
// blocks, one id block and its words each (segment.go).
//
// A run holds one length, and the store keeps a subset's records of two
// lengths as two runs, (tag, length) ascending, deduplicating each on its
// own: which length a deployment serves is its engine's to decide.  A
// checksum-clean header of a shape past 30 is an older binary's run of
// whole Pack words, which this version refuses with ErrFormatTooOld.
type run struct {
	tag string // the subset's canonical tag, Subset.Key: what runs sort by
	sketch.Run
}

// compareRuns orders runs by (tag, length).
func compareRuns(a, b run) int {
	return cmp.Or(strings.Compare(a.tag, b.tag), cmp.Compare(a.Keys.Shape(), b.Keys.Shape()))
}

const runHeaderFixed = 4 + 4 + 1 // tag length, record count, shape

// castagnoli is the CRC-32C table; checksum is the one integrity function
// of every structure the store writes — log frames, segment run headers
// and blocks.  (wire frames use the same polynomial.)
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// appendRunHeader appends a run's header.
func appendRunHeader(dst []byte, tag string, count int, shape sketch.Shape) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tag)))
	dst = append(dst, tag...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(count))
	return append(dst, byte(shape))
}

// runHeader is a parsed run header; tag aliases the parsed bytes.
type runHeader struct {
	tag   []byte
	count int
	shape sketch.Shape
	size  int // bytes the header occupies
}

// maxWholeShape is the widest shape an older binary wrote: whole Pack
// words of a column that met two lengths, in up to 35 bits each.
const maxWholeShape = sketch.MaxLength + sketch.MaxLength + 5

// parseRunHeader reads the run header at the front of src.  Every field
// is input: lengths are checked against what src holds before anything is
// sliced, a shape that is not one length is refused — one of an older
// binary's whole words with ErrFormatTooOld and the header's size, for the
// caller to hold against the header's checksum — and so is a count whose
// columns the bytes after the header could not hold — at the least an id
// block's 8 bytes and a byte an id, and the words' bits — so that what is
// later allocated for the count is a bounded multiple of the file it came
// from.
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
	switch h.shape = sketch.Shape(src[h.size-1]); {
	case h.shape == 0 || h.shape > maxWholeShape:
		return runHeader{}, fmt.Errorf("run word shape %d", h.shape)
	case h.shape > sketch.MaxLength:
		return runHeader{size: h.size}, fmt.Errorf("%w: a run of whole words, shape %d", ErrFormatTooOld, h.shape)
	}
	rest := uint64(len(src) - h.size)
	if count == 0 || count > rest || uint64(sketch.MinIDBlocksLen(int(count))+wordsLen(int(count), h.shape)) > rest {
		return runHeader{}, fmt.Errorf("run of %d records in %d bytes", count, rest)
	}
	h.count = int(count)
	return h, nil
}

// wordsLen is how many bytes n words of the given shape occupy on disk.
// Blocks of 64 words are whole bytes, so a segment's blocks of a run take
// what the run's words take in one piece.
func wordsLen(n int, shape sketch.Shape) int { return (n*shape.Bits() + 7) / 8 }

// runSet gathers records in arrival order, one growing run per subset and
// length, and normalizes them: ids ascending within a run, the newest
// arrival winning a repeated id, runs in (tag, length) order.  It is how a
// log's windows become the runs everything else reads.
type runSet struct {
	// byKey is keyed by the tag followed by the length's byte.
	byKey map[string]*growingRun
	// last short-cuts the lookup: consecutive runs of a window mostly name
	// the same subset.
	last           *growingRun
	tagBuf, keyBuf []byte
	// marks remembers how long each run was before the frame being added,
	// to take a malformed frame's records back out.
	marks []runMark
}

type runMark struct {
	r *growingRun
	n int
}

// growingRun is a run a runSet is still adding to, its ids raw and in
// arrival order — the one place outside a table's tail where they are;
// reserved counts the records about to be added, so that the columns are
// sized once.
type growingRun struct {
	tag      string
	subset   bitvec.Subset
	ids      []bitvec.UserID
	keys     sketch.Words
	reserved int
	shape    sketch.Shape
}

func newRunSet() *runSet { return &runSet{byKey: make(map[string]*growingRun)} }

// runFor returns the set's run for tag and shape, parsing the subset the
// first time the tag is seen at it.
func (s *runSet) runFor(tag []byte, shape sketch.Shape) (*growingRun, error) {
	if s.last != nil && s.last.shape == shape && s.last.tag == string(tag) {
		return s.last, nil
	}
	s.keyBuf = append(append(s.keyBuf[:0], tag...), byte(shape))
	r := s.byKey[string(s.keyBuf)]
	if r == nil {
		subset, err := bitvec.ParseTag(tag)
		if err != nil {
			return nil, err
		}
		r = &growingRun{tag: string(tag), subset: subset, shape: shape}
		s.byKey[string(s.keyBuf)] = r
	}
	s.last = r
	return r, nil
}

// add appends one record to its run.
func (s *runSet) add(p sketch.Published) {
	s.tagBuf = p.Subset.AppendTag(s.tagBuf[:0])
	r, err := s.runFor(s.tagBuf, sketch.Shape(p.S.Length))
	if err != nil {
		panic(err) // the tag of a valid Subset parses
	}
	r.ids, r.keys = append(r.ids, p.ID), r.keys.Append(p.S.Pack())
}

// normalized returns the set's runs, normalized.  The set must not be
// added to afterwards.
func (s *runSet) normalized() []run {
	out := make([]run, 0, len(s.byKey))
	for _, r := range s.byKey {
		if len(r.ids) == 0 {
			continue // named only by a frame that was then refused
		}
		ids, keys := r.ids, r.keys
		if !sketch.Ascends(ids) {
			ids, keys = sketch.SortByID(ids, keys)
			n := 0
			for i, id := range ids {
				if i+1 < len(ids) && ids[i+1] == id {
					continue // a newer arrival for the same user follows
				}
				ids[n] = id
				keys.Set(n, keys.At(i))
				n++
			}
			ids, keys = ids[:n], keys.Slice(0, n)
		}
		out = append(out, run{tag: r.tag, Run: sketch.Run{Subset: r.subset, IDs: sketch.MakeIDs(ids), Keys: keys}})
	}
	slices.SortFunc(out, compareRuns)
	return out
}

// runsOf returns tag's runs among runs, which are in (tag, length) order.
func runsOf(runs []run, tag string) []run {
	i, _ := slices.BinarySearchFunc(runs, tag, func(r run, tag string) int { return strings.Compare(r.tag, tag) })
	n := i
	for n < len(runs) && runs[n].tag == tag {
		n++
	}
	return runs[i:n]
}

// mergeColumns merges the sources of one subset and length, oldest first,
// into fresh columns: ids ascending, the newest source winning an id two of
// them hold.  The sources are left as they were.
func mergeColumns(srcs []sketch.Run) (sketch.IDs, sketch.Words) {
	total, size, shape := 0, 0, sketch.Shape(0)
	// heap orders the unfinished sources by (next id, age): an entry is a
	// source's next id and its index in srcs, which is its age; next[src]
	// is how much of it has been merged, read through cur[src].
	type cursor struct {
		id  bitvec.UserID
		src int
	}
	heap, next, cur := make([]cursor, 0, len(srcs)), make([]int, len(srcs)), make([]sketch.IDCursor, len(srcs))
	for src, s := range srcs {
		if s.Len() > 0 {
			cur[src].Reset(s.IDs)
			heap = append(heap, cursor{cur[src].At(0), src})
			total, size, shape = total+s.Len(), size+s.IDs.Bytes(), s.Keys.Shape()
		}
	}
	var ids sketch.IDBuilder
	ids.Grow(total, size)
	keys := sketch.MakeWords(shape, 0, total)
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
	// Equal ids leave the heap oldest first, so a repeat overwrites.
	for len(heap) > 0 {
		top := heap[0]
		s, at := &srcs[top.src], next[top.src]
		if n := ids.Len(); n > 0 && ids.Last() == top.id {
			keys.Set(n-1, s.Keys.At(at))
		} else {
			ids.Append(top.id)
			keys = keys.Append(s.Keys.At(at))
		}
		at++
		if len(heap) == 1 {
			// What is left of the last source moves whole.
			ids.AppendIDs(&cur[top.src], at, s.Len())
			keys = keys.AppendWords(s.Keys.Slice(at, s.Len()))
			break
		}
		if at < s.Len() {
			heap[0].id = cur[top.src].At(at)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		next[top.src] = at
		down(heap, 0)
	}
	return ids.IDs(), keys
}
