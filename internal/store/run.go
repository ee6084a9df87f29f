package store

import (
	"cmp"
	"encoding/binary"
	"errors"
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
// between them, in the bits the widest needs) and packed sketches
// (sketch.Words), under the subset named once.  A commit window in the
// log, a segment on disk, a roll, a compaction and a replay all move runs;
// nothing in the store holds a sketch.Published per record, a sketch in
// more bits than its column's shape gives it, or — outside the records of
// a log still in arrival order — an id at 8 bytes.
//
// On disk (format v8) a run is
//
//	the subset, compact (bitvec.Subset.AppendCompact): a uvarint position
//	        count, then each position in subset order, a uvarint — 11
//	        bytes for ten positions below 128
//	1 byte  the word column's shape, the run's one sketch length ℓ, 1..30,
//	        with sharedIDs (0x80) set where the run's ids are those of the
//	        run before it in its frame
//	uvarint the record count (≥ 1), where the run carries its own ids
//
// followed by its columns: unless it shares them, the count ids as an id
// column — blocks of 64, each a width byte b, a first id and the
// differences from id to id less one in b bits each, or the ids raw where
// they do not ascend (sketch/ids.go has the layout and the argument for a
// bit width per block) — and the count keys as the column holds them in
// memory, ℓ bits each, ⌈count·ℓ/8⌉ bytes, low bit first, the pad bits of
// the last byte zero: the paper's ⌈log log O(M)⌉-bit disclosure and
// nothing else, 9 bits for the benchmark deployment's sketches, 72 bytes
// for a block of 64.  Every integer of a header is in its fewest bytes, so
// a run has one byte form and a log's run set, keyed by those bytes, one
// run per subset and length.  Both columns are the table's own bits,
// written with a copy and read back with a checked one
// (sketch.IDBuilder.AppendBlock, sketch.Words.AppendBits and
// AppendBitsFrom, and nowhere else).  Runs travel in frames (wal.go), and
// the log and a segment write the same frames: the log one per appended
// group, its runs one per stretch of the group's records of one subset and
// length, ids as they came — ascending, as the engine hands a batch over,
// and the same users subset after subset, so that a batch's runs after the
// first share its id column; a segment one per run, sorted and
// deduplicated, never sharing (segment.go).
//
// The subset's name is compact only on disk: a parsed run carries the
// Subset it names, and in memory a run is keyed by Subset.Key, the PRF
// message's tag.  A run holds one length, and the store keeps a subset's
// records of two lengths as two runs, (tag, length) ascending,
// deduplicating each on its own: which length a deployment serves is its
// engine's to decide.  A shape byte of 0 or past 30 is no run's.
type run struct {
	tag string // the subset's canonical tag, Subset.Key: what runs sort by
	sketch.Run
}

// compareRuns orders runs by (tag, length).
func compareRuns(a, b run) int {
	return cmp.Or(strings.Compare(a.tag, b.tag), cmp.Compare(a.Keys.Shape(), b.Keys.Shape()))
}

// sharedIDs marks a run header's shape byte where the run holds the ids of
// the run before it in its frame, which its bytes leave out.
const sharedIDs = 0x80

// castagnoli is the CRC-32C table; checksum is the one integrity function
// of every structure the store writes: a frame, of the log or of a
// segment.  (wire frames use the same polynomial.)
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// appendRunHeader appends a run's header: its subset's compact encoding,
// its shape byte and, unless it shares the ids of the run before it, its
// count.
func appendRunHeader(dst []byte, subset bitvec.Subset, count int, shape sketch.Shape, shared bool) []byte {
	dst = subset.AppendCompact(dst)
	if shared {
		return append(dst, byte(shape)|sharedIDs)
	}
	return binary.AppendUvarint(append(dst, byte(shape)), uint64(count))
}

// runHeaderSize bounds the size of the header of a run of subset holding
// at most count records.
func runHeaderSize(subset bitvec.Subset, count int) int {
	var buf [binary.MaxVarintLen64]byte
	return subset.CompactLen() + 1 + len(binary.AppendUvarint(buf[:0], uint64(count)))
}

// runHeader is a parsed run header; name aliases the parsed bytes.
type runHeader struct {
	name   []byte // the subset, compact
	count  int
	shape  sketch.Shape
	shared bool // the run holds the ids of the run before it in its frame
	size   int  // bytes the header occupies
}

// parseRunHeader reads the run header at the front of src; prev is the
// count of the run before it in its frame, 0 for a frame's first.  Every
// field is input: lengths are checked against what src holds before
// anything is sliced, an integer not in its fewest bytes is refused, so is
// a shape that is not one length, a run sharing the ids of none, and a
// count whose columns the bytes after the header could not hold — at the
// least 9 bytes an id block, one of consecutive ids, unless the ids are
// shared, and the words' bits — so that what is later allocated for the
// count is a bounded multiple of the file it came from.  A run with its own
// ids spends 9/64 byte an id and 1/8 byte a 1-bit key, fewer than 4 ids a
// byte; a run sharing them spends the key alone, 8 ids a byte, which
// replay decodes again into 8-byte slots: 64 bytes of ids a byte of file.
func parseRunHeader(src []byte, prev int) (runHeader, error) {
	n, err := bitvec.CompactSize(src)
	if err != nil {
		return runHeader{}, err
	}
	if n == len(src) {
		return runHeader{}, fmt.Errorf("run header truncated at %d bytes", len(src))
	}
	b := src[n]
	h := runHeader{name: src[:n], shape: sketch.Shape(b &^ sharedIDs), shared: b&sharedIDs != 0, size: n + 1}
	if h.shape == 0 || h.shape > sketch.MaxLength {
		return runHeader{}, fmt.Errorf("run word shape %d", h.shape)
	}
	least := 0 // what the id column takes at the least
	if h.shared {
		if prev == 0 {
			return runHeader{}, errors.New("a frame's first run shares the ids of none")
		}
		h.count = prev
	} else {
		count, k := binary.Uvarint(src[h.size:])
		if k <= 0 || k > 1 && src[h.size+k-1] == 0 {
			return runHeader{}, errors.New("run count cut short or padded")
		}
		h.size += k
		if count == 0 || count > 8*uint64(len(src)-h.size) {
			return runHeader{}, fmt.Errorf("run of %d records in %d bytes", count, len(src)-h.size)
		}
		h.count = int(count)
		least = sketch.MinIDBlocksLen(h.count)
	}
	if rest := len(src) - h.size; least+wordsLen(h.count, h.shape) > rest {
		return runHeader{}, fmt.Errorf("run of %d records in %d bytes", h.count, rest)
	}
	return h, nil
}

// wordsLen is how many bytes n words of the given shape occupy on disk.
// 64 words are whole bytes, so a run cut at id blocks into frames
// (segWriter) takes what its words take in one piece.
func wordsLen(n int, shape sketch.Shape) int { return (n*shape.Bits() + 7) / 8 }

// runSet gathers records in arrival order, one growing run per subset and
// length, and normalizes them: ids ascending within a run, the newest
// arrival winning a repeated id, runs in (tag, length) order.  It is how a
// log's windows become the runs everything else reads.
type runSet struct {
	// byKey is keyed by the subset's compact name followed by the length's
	// byte.
	byKey map[string]*growingRun
	// last short-cuts the lookup: consecutive runs of a window mostly name
	// the same subset.
	last            *growingRun
	nameBuf, keyBuf []byte
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
	name     string // the subset, compact
	tag      string // Subset.Key
	subset   bitvec.Subset
	ids      []bitvec.UserID
	keys     sketch.Words
	reserved int
	shape    sketch.Shape
}

func newRunSet() *runSet { return &runSet{byKey: make(map[string]*growingRun)} }

// runFor returns the set's run for the subset named name and shape,
// parsing the subset the first time the name is seen at it.
func (s *runSet) runFor(name []byte, shape sketch.Shape) (*growingRun, error) {
	if s.last != nil && s.last.shape == shape && s.last.name == string(name) {
		return s.last, nil
	}
	s.keyBuf = append(append(s.keyBuf[:0], name...), byte(shape))
	r := s.byKey[string(s.keyBuf)]
	if r == nil {
		subset, _, err := bitvec.ParseCompact(name)
		if err != nil {
			return nil, err
		}
		r = &growingRun{name: string(name), tag: subset.Key(), subset: subset, shape: shape}
		s.byKey[string(s.keyBuf)] = r
	}
	s.last = r
	return r, nil
}

// add appends one record to its run.
func (s *runSet) add(p sketch.Published) {
	s.nameBuf = p.Subset.AppendCompact(s.nameBuf[:0])
	r, err := s.runFor(s.nameBuf, sketch.Shape(p.S.Length))
	if err != nil {
		panic(err) // the compact encoding of a valid Subset parses
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
