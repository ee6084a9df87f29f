package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// Indexed segment format (version 2).  A v2 segment carries enough
// structure to answer point lookups and range reads with a seek instead
// of a full-file scan:
//
//	8  bytes magic "SKSEG\x00\x00\x02"
//	4  bytes big-endian record count
//	frames: per record, 4-byte big-endian payload length + 4-byte
//	        big-endian CRC32 (IEEE) of the payload + wire payload,
//	        in canonical (subset key, user id) order
//	index section (at indexOff):
//	  2 bytes stride N (every Nth record is indexed)
//	  4 bytes entry count (== ceil(count/N))
//	  entries: 8-byte frame offset + 8-byte user id + 2-byte subset-key
//	           length + subset key, entry i describing record i*N
//	  4 bytes bloom length + 1 byte bloom hash count + bloom bytes
//	           (per-user bloom filter over every record's user id)
//	16 byte footer:
//	  4 bytes CRC32 of the index section
//	  8 bytes indexOff
//	  4 bytes CRC32 of everything above (the whole-file checksum)
//
// The index is advisory: every consistency check on it — the inner CRC,
// monotonic in-range offsets, the entry-key spot check after a seek —
// falls back to the linear frame walk on failure, which depends only on
// the header count and the per-record CRCs.  A reader can therefore be
// wrong about nothing: a corrupt index costs a scan, never a wrong
// record.
const (
	// segIndexStride is every-Nth-record sparse index granularity: a seek
	// over-reads at most stride-1 records (a few KiB) to reach its target.
	segIndexStride = 16
	// segBloomBitsPerRecord and segBloomK size the per-user bloom filter
	// (~10 bits/record, 6 probes ≈ 1% false positives).
	segBloomBitsPerRecord = 10
	segBloomK             = 6

	segV2HeaderSize = 12 // magic + record count
	segV2FooterSize = 16 // inner CRC + indexOff + outer CRC
	segV2FrameHdr   = 8  // per-record length + CRC
)

// segIndex is one v2 segment's parsed footer index, kept in memory for
// the segment's lifetime (a few hundred KiB per 4 MiB segment).
type segIndex struct {
	count     uint32
	framesEnd uint64 // offset one past the last frame == indexOff
	stride    int
	entries   []segIndexEntry
	bloom     []byte
	bloomK    int
}

// segIndexEntry locates record ordinal i*stride: its frame offset and its
// key, the latter re-checked after every seek so a lying offset degrades
// to a fallback scan instead of misattributed records.
type segIndexEntry struct {
	off    uint64
	user   bitvec.UserID
	subset string
}

// keyLess orders record keys canonically: subset key first, user id
// second — the order normalize sorts into and segments are written in.
func keyLess(a, b recordKey) bool {
	if a.subset != b.subset {
		return a.subset < b.subset
	}
	return a.id < b.id
}

// splitmix64 is the bloom filter's mixer: cheap, well-distributed, and
// stable across processes (the filter is persisted).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bloomAdd sets user's k bits via double hashing (h1 + i*h2).
func bloomAdd(bloom []byte, k int, user uint64) {
	bits := uint64(len(bloom)) * 8
	h1 := splitmix64(user)
	h2 := splitmix64(user ^ 0x5bf03635)
	for i := 0; i < k; i++ {
		bit := (h1 + uint64(i)*h2) % bits
		bloom[bit/8] |= 1 << (bit % 8)
	}
}

// bloomTest reports whether user may be present; false is definitive.
func bloomTest(bloom []byte, k int, user uint64) bool {
	if len(bloom) == 0 || k <= 0 {
		return true // no filter: cannot exclude anyone
	}
	bits := uint64(len(bloom)) * 8
	h1 := splitmix64(user)
	h2 := splitmix64(user ^ 0x5bf03635)
	for i := 0; i < k; i++ {
		bit := (h1 + uint64(i)*h2) % bits
		if bloom[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// encodeSegmentV2 renders records (already in canonical order) as a full
// v2 segment image and the in-memory index that describes it, so a
// fresh roll or compaction never re-parses its own output.
func encodeSegmentV2(records []sketch.Published) ([]byte, *segIndex) {
	idx := &segIndex{count: uint32(len(records)), stride: segIndexStride, bloomK: segBloomK}
	bloomBits := len(records) * segBloomBitsPerRecord
	if bloomBits < 64 {
		bloomBits = 64
	}
	idx.bloom = make([]byte, (bloomBits+7)/8)

	buf := make([]byte, 0, segV2HeaderSize+len(records)*56)
	buf = append(buf, segMagicV2[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(records)))
	// Records arrive sorted by subset, so consecutive index entries mostly
	// name the same one: they share one key string per run, not one each.
	var keyOf bitvec.Subset
	var key string
	for i, p := range records {
		if i%segIndexStride == 0 {
			if key == "" || !p.Subset.Equal(keyOf) {
				keyOf, key = p.Subset, p.Subset.Key()
			}
			idx.entries = append(idx.entries, segIndexEntry{off: uint64(len(buf)), user: p.ID, subset: key})
		}
		bloomAdd(idx.bloom, segBloomK, uint64(p.ID))
		hdr := len(buf)
		buf = append(buf, zeroHeader[:]...)
		buf = wire.AppendPublished(buf, p)
		payload := buf[hdr+segV2FrameHdr:]
		binary.BigEndian.PutUint32(buf[hdr:], uint32(len(payload)))
		binary.BigEndian.PutUint32(buf[hdr+4:], crc32.ChecksumIEEE(payload))
	}
	indexOff := uint64(len(buf))
	idx.framesEnd = indexOff

	section := make([]byte, 0, 6+len(idx.entries)*32+5+len(idx.bloom))
	section = binary.BigEndian.AppendUint16(section, uint16(segIndexStride))
	section = binary.BigEndian.AppendUint32(section, uint32(len(idx.entries)))
	for _, e := range idx.entries {
		section = binary.BigEndian.AppendUint64(section, e.off)
		section = binary.BigEndian.AppendUint64(section, uint64(e.user))
		section = binary.BigEndian.AppendUint16(section, uint16(len(e.subset)))
		section = append(section, e.subset...)
	}
	section = binary.BigEndian.AppendUint32(section, uint32(len(idx.bloom)))
	section = append(section, byte(segBloomK))
	section = append(section, idx.bloom...)

	buf = append(buf, section...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(section))
	buf = binary.BigEndian.AppendUint64(buf, indexOff)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, idx
}

// parseSegIndex extracts the index of a v2 segment image that already
// passed the whole-file checksum.  Every length, offset and count is
// treated as hostile 64-bit input: any violation returns an error, and
// callers degrade to the index-free linear path.
func parseSegIndex(data []byte, count uint32, path string) (*segIndex, error) {
	n := uint64(len(data))
	if n < segV2HeaderSize+segV2FooterSize {
		return nil, fmt.Errorf("%w: %s is %d bytes", ErrSegmentCorrupt, path, n)
	}
	innerCRC := binary.BigEndian.Uint32(data[n-16:])
	indexOff := binary.BigEndian.Uint64(data[n-12:])
	if indexOff < segV2HeaderSize || indexOff > n-segV2FooterSize {
		return nil, fmt.Errorf("%w: %s index offset %d out of range", ErrSegmentCorrupt, path, indexOff)
	}
	section := data[indexOff : n-segV2FooterSize]
	if crc32.ChecksumIEEE(section) != innerCRC {
		return nil, fmt.Errorf("%w: %s index section fails checksum", ErrSegmentCorrupt, path)
	}
	if len(section) < 6 {
		return nil, fmt.Errorf("%w: %s index section is %d bytes", ErrSegmentCorrupt, path, len(section))
	}
	idx := &segIndex{count: count, framesEnd: indexOff}
	idx.stride = int(binary.BigEndian.Uint16(section))
	entryCount := binary.BigEndian.Uint32(section[2:])
	section = section[6:]
	if idx.stride < 1 {
		return nil, fmt.Errorf("%w: %s index stride 0", ErrSegmentCorrupt, path)
	}
	want := (uint64(count) + uint64(idx.stride) - 1) / uint64(idx.stride)
	if uint64(entryCount) != want {
		return nil, fmt.Errorf("%w: %s index has %d entries for %d records at stride %d", ErrSegmentCorrupt, path, entryCount, count, idx.stride)
	}
	// Each entry needs at least 18 bytes, so the checksummed count still
	// cannot force a huge allocation.
	if uint64(entryCount) > uint64(len(section))/18 {
		return nil, fmt.Errorf("%w: %s index entry count %d exceeds section", ErrSegmentCorrupt, path, entryCount)
	}
	idx.entries = make([]segIndexEntry, 0, entryCount)
	prev := uint64(0)
	for i := uint32(0); i < entryCount; i++ {
		if len(section) < 18 {
			return nil, fmt.Errorf("%w: %s index truncated at entry %d", ErrSegmentCorrupt, path, i)
		}
		e := segIndexEntry{
			off:  binary.BigEndian.Uint64(section),
			user: bitvec.UserID(binary.BigEndian.Uint64(section[8:])),
		}
		klen := int(binary.BigEndian.Uint16(section[16:]))
		section = section[18:]
		if len(section) < klen {
			return nil, fmt.Errorf("%w: %s index entry %d key truncated", ErrSegmentCorrupt, path, i)
		}
		if i > 0 && string(section[:klen]) == idx.entries[i-1].subset {
			e.subset = idx.entries[i-1].subset // shared, as encodeSegmentV2 builds them
		} else {
			e.subset = string(section[:klen])
		}
		section = section[klen:]
		if e.off < segV2HeaderSize || e.off >= indexOff || (i > 0 && e.off <= prev) {
			return nil, fmt.Errorf("%w: %s index entry %d offset %d out of range", ErrSegmentCorrupt, path, i, e.off)
		}
		prev = e.off
		idx.entries = append(idx.entries, e)
	}
	if len(section) < 5 {
		return nil, fmt.Errorf("%w: %s bloom header truncated", ErrSegmentCorrupt, path)
	}
	bloomLen := binary.BigEndian.Uint32(section)
	idx.bloomK = int(section[4])
	section = section[5:]
	if uint64(bloomLen) != uint64(len(section)) {
		return nil, fmt.Errorf("%w: %s bloom length %d does not match section", ErrSegmentCorrupt, path, bloomLen)
	}
	if bloomLen > 0 && (idx.bloomK < 1 || idx.bloomK > 64) {
		return nil, fmt.Errorf("%w: %s bloom hash count %d", ErrSegmentCorrupt, path, idx.bloomK)
	}
	idx.bloom = section
	// A structural walk of the frame length headers cross-checks the record
	// count against the frame area and pins every index entry to a real
	// frame boundary.  Without it, a forged count whose ceil(count/stride)
	// matches the entry count would make the indexed range reads silently
	// drop trailing records — the linear path catches that as trailing
	// bytes, and after this check the indexed path can't do worse.
	off := uint64(segV2HeaderSize)
	for i := uint32(0); i < count; i++ {
		if i%uint32(idx.stride) == 0 {
			if e := idx.entries[i/uint32(idx.stride)]; e.off != off {
				return nil, fmt.Errorf("%w: %s index entry for record %d points at %d, frame is at %d", ErrSegmentCorrupt, path, i, e.off, off)
			}
		}
		if indexOff-off < segV2FrameHdr {
			return nil, fmt.Errorf("%w: %s frame %d overruns the frame area", ErrSegmentCorrupt, path, i)
		}
		frameLen := uint64(binary.BigEndian.Uint32(data[off:]))
		off += segV2FrameHdr
		if indexOff-off < frameLen {
			return nil, fmt.Errorf("%w: %s frame %d overruns the frame area", ErrSegmentCorrupt, path, i)
		}
		off += frameLen
	}
	if off != indexOff {
		return nil, fmt.Errorf("%w: %s frame area has %d bytes beyond the last frame", ErrSegmentCorrupt, path, indexOff-off)
	}
	return idx, nil
}

// readFramesAt reads want records starting at record ordinal startOrd,
// whose frame starts at byte startOff and whose region ends at endOff
// (the next indexed frame or the end of the frame area).  The first
// decoded record must match the index entry's key — the spot check that
// turns a lying offset into a loud error instead of misattributed
// records.
func readFramesAt(path string, startOff, endOff uint64, entry segIndexEntry, want int) ([]sketch.Published, error) {
	if endOff < startOff {
		return nil, fmt.Errorf("%w: %s inverted frame range", ErrSegmentCorrupt, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	region := make([]byte, endOff-startOff)
	if _, err := f.ReadAt(region, int64(startOff)); err != nil {
		return nil, fmt.Errorf("%w: %s frame range read: %v", ErrSegmentCorrupt, path, err)
	}
	out := make([]sketch.Published, 0, want)
	for i := 0; i < want; i++ {
		if len(region) < segV2FrameHdr {
			return nil, fmt.Errorf("%w: %s frame range truncated %d records in", ErrSegmentCorrupt, path, i)
		}
		n := binary.BigEndian.Uint32(region)
		sum := binary.BigEndian.Uint32(region[4:])
		region = region[segV2FrameHdr:]
		if uint64(len(region)) < uint64(n) {
			return nil, fmt.Errorf("%w: %s frame overruns its range", ErrSegmentCorrupt, path)
		}
		payload := region[:n]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: %s frame fails checksum", ErrSegmentCorrupt, path)
		}
		p, err := wire.DecodePublished(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %s frame decode: %v", ErrSegmentCorrupt, path, err)
		}
		if i == 0 && (p.ID != entry.user || p.Subset.Key() != entry.subset) {
			return nil, fmt.Errorf("%w: %s index entry key mismatch at offset %d", ErrSegmentCorrupt, path, startOff)
		}
		out = append(out, p)
		region = region[n:]
	}
	return out, nil
}

// readSegmentRange returns up to n records of the segment starting at
// record ordinal from, seeking through the sparse index when one is
// loaded and falling back to the full linear read otherwise (v1
// segments, or a v2 index that failed any consistency check).
func readSegmentRange(meta segmentMeta, m *metrics, from, n int) ([]sketch.Published, error) {
	idx := meta.idx
	if idx == nil || len(idx.entries) == 0 || n <= 0 {
		if m != nil && n > 0 {
			m.indexFallbacks.Inc()
		}
		records, err := readSegment(meta.path)
		if err != nil {
			return nil, err
		}
		if from >= len(records) {
			return nil, nil
		}
		return records[from:min(from+n, len(records))], nil
	}
	count := int(idx.count)
	if from >= count {
		return nil, nil
	}
	end := min(from+n, count)
	ei := from / idx.stride // < len(entries): from < count and entries cover every stride
	startOrd := ei * idx.stride
	ej := (end + idx.stride - 1) / idx.stride
	endOff := idx.framesEnd
	if ej < len(idx.entries) {
		endOff = idx.entries[ej].off
	}
	records, err := readFramesAt(meta.path, idx.entries[ei].off, endOff, idx.entries[ei], end-startOrd)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err // compacted away, not corruption: caller re-seeks
		}
		// Index or frame inconsistency: degrade to the full scan, which
		// trusts nothing but the header count and per-record checksums.
		if m != nil {
			m.indexFallbacks.Inc()
		}
		records, ferr := readSegment(meta.path)
		if ferr != nil {
			return nil, ferr
		}
		if from >= len(records) {
			return nil, nil
		}
		return records[from:min(from+n, len(records))], nil
	}
	if m != nil {
		m.indexSeeks.Inc()
	}
	return records[from-startOrd:], nil
}

// lookupSegment finds the record for key in one segment: bloom filter
// first (a miss skips the file entirely), then a binary search of the
// sparse index and a one-stride frame read.  Index-free segments scan.
// The returned record's key always equals the queried key — every
// candidate is checked after decoding — so no index state can
// misattribute a record.
func lookupSegment(meta segmentMeta, m *metrics, key recordKey) (sketch.Published, bool, error) {
	idx := meta.idx
	if idx == nil {
		if m != nil {
			m.indexFallbacks.Inc()
		}
		return scanForKey(meta.path, key)
	}
	if len(idx.entries) == 0 {
		return sketch.Published{}, false, nil
	}
	if !bloomTest(idx.bloom, idx.bloomK, uint64(key.id)) {
		if m != nil {
			m.bloomSkips.Inc()
		}
		return sketch.Published{}, false, nil
	}
	// Rightmost entry with key <= target; the record, if present, lives in
	// that entry's stride.  A target below entry 0 (record 0's key) is
	// absent.
	ei := sort.Search(len(idx.entries), func(i int) bool {
		ek := recordKey{id: idx.entries[i].user, subset: idx.entries[i].subset}
		return keyLess(key, ek)
	}) - 1
	if ei < 0 {
		return sketch.Published{}, false, nil
	}
	endOff := idx.framesEnd
	if ei+1 < len(idx.entries) {
		endOff = idx.entries[ei+1].off
	}
	want := idx.stride
	if rest := int(idx.count) - ei*idx.stride; rest < want {
		want = rest
	}
	records, err := readFramesAt(meta.path, idx.entries[ei].off, endOff, idx.entries[ei], want)
	if err != nil {
		if os.IsNotExist(err) {
			return sketch.Published{}, false, err
		}
		if m != nil {
			m.indexFallbacks.Inc()
		}
		return scanForKey(meta.path, key)
	}
	if m != nil {
		m.indexSeeks.Inc()
	}
	for _, p := range records {
		if keyOf(p) == key {
			return p, true, nil
		}
	}
	return sketch.Published{}, false, nil
}

// scanForKey is the index-free point lookup: read the whole segment and
// match keys.
func scanForKey(path string, key recordKey) (sketch.Published, bool, error) {
	records, err := readSegment(path)
	if err != nil {
		return sketch.Published{}, false, err
	}
	for _, p := range records {
		if keyOf(p) == key {
			return p, true, nil
		}
	}
	return sketch.Published{}, false, nil
}

// mergeSorted merges sources that are each already in canonical
// (subset, user) order — immutable segments oldest first, the normalized
// WAL mirror last — into one deduplicated slice, later sources winning
// duplicate keys.  This replaces the O(n log n) re-sort of normalize for
// load and compaction with a linear k-way merge.  A source that is not
// strictly ascending (a foreign or hand-built segment) is detected
// during the key pass and the whole merge falls back to normalize, so
// sortedness is an optimization assumption, never a correctness one.
func mergeSorted(sources [][]sketch.Published) []sketch.Published {
	keys := make([][]recordKey, len(sources))
	total := 0
	for si, s := range sources {
		ks := make([]recordKey, len(s))
		for i, p := range s {
			ks[i] = keyOf(p)
			if i > 0 && !keyLess(ks[i-1], ks[i]) {
				all := make([]sketch.Published, 0, total)
				for _, s := range sources {
					all = append(all, s...)
				}
				return normalize(all)
			}
		}
		keys[si] = ks
		total += len(s)
	}
	idx := make([]int, len(sources))
	out := make([]sketch.Published, 0, total)
	for {
		best := -1
		for si := range sources {
			if idx[si] >= len(sources[si]) {
				continue
			}
			// "<=" via !keyLess(best, si): equal keys hand the win to the
			// later — newer — source.
			if best < 0 || !keyLess(keys[best][idx[best]], keys[si][idx[si]]) {
				best = si
			}
		}
		if best < 0 {
			return out
		}
		k := keys[best][idx[best]]
		out = append(out, sources[best][idx[best]])
		for si := range sources {
			if idx[si] < len(sources[si]) && keys[si][idx[si]] == k {
				idx[si]++
			}
		}
	}
}
