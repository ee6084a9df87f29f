package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// fuzzSegmentRecords deterministically fabricates a normalized record set
// from a seed: the fuzzer varies segment shape through (seed, n) while
// the test always knows the exact expected contents.  Its keys are of
// ℓ = 10, or with twoLengths about half of them of ℓ = 20, so that a
// subset is two runs and a user may hold a record in each.
func fuzzSegmentRecords(seed uint64, n int, twoLengths bool) []run {
	subsets := []bitvec.Subset{
		bitvec.MustSubset(0),
		bitvec.MustSubset(0, 3, 5),
		bitvec.MustSubset(1, 4),
		bitvec.MustSubset(2, 6, 7, 9),
	}
	records := make([]sketch.Published, 0, n)
	x := seed
	for i := 0; i < n; i++ {
		x = splitmix64(x + uint64(i))
		length := 10
		if twoLengths && x>>20&1 == 1 {
			length = 20
		}
		records = append(records, sketch.Published{
			ID:     bitvec.UserID(x % 100_000),
			Subset: subsets[int(x>>32)%len(subsets)],
			S:      sketch.Sketch{Key: x % (1 << uint(length)), Length: length},
		})
	}
	return testRuns(records)
}

// splitmix64 mixes the fuzz seeds into record sets and log windows.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// samePub compares records field-wise (Subset is not ==-comparable).
func samePub(a, b sketch.Published) bool {
	return a.ID == b.ID && a.S == b.S && a.Subset.Equal(b.Subset)
}

// FuzzSegmentIndex corrupts an arbitrary byte — the header's count, a run
// header and its shape byte, a block's width byte, first id, differences
// or words and their pad bits, a block sum, the footer's data-area end,
// anywhere — of a v5 segment written here from a fuzzer-shaped record set,
// with twoLengths one whose subsets are each a run at ℓ = 10 and one at
// ℓ = 20.  Then it drives every read path.
// The contract: the open fails loudly, or every read returns exactly the
// written records or fails loudly; reads never panic, never return a
// wrong, missing or misattributed record, and hostile lengths never drive
// huge allocations.
func FuzzSegmentIndex(f *testing.F) {
	f.Add(uint64(1), 10, -1, byte(0), false)
	f.Add(uint64(2), 0, -1, byte(0), false)
	f.Add(uint64(3), 40, 9, byte(0xFF), false)    // header record count
	f.Add(uint64(4), 40, 30, byte(0x01), false)   // first run header
	f.Add(uint64(5), 200, 1500, byte(0x80), true) // a block of a run at ℓ = 20
	f.Add(uint64(6), 33, -5, byte(0xFF), false)   // footer: data-area end
	f.Add(uint64(7), 33, -12, byte(0xFF), true)   // footer: the skipped section's checksum
	f.Add(uint64(8), 64, -20, byte(0x40), true)   // the last block's words
	f.Add(uint64(9), 40, 45, byte(0x09), false)   // the first block's width byte
	f.Add(uint64(10), 40, 46, byte(0x80), false)  // the first block's first id
	f.Add(uint64(11), 300, 60, byte(0x01), false) // a difference of the first block
	f.Add(uint64(12), 300, 200, byte(0xFF), false)
	f.Add(uint64(13), 40, 40, byte(0x41), false) // the first run's shape byte
	// The last byte of the first run's last block of words, pad bits and
	// all.
	_, padIdx := encodeSegment(fuzzSegmentRecords(14, 45, false))
	f.Add(uint64(14), 45, int(padIdx.runs[0].end)-5, byte(0x80), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, corruptAt int, corruptXor byte, twoLengths bool) {
		if n < 0 || n > 300 {
			n = int(uint(n) % 301)
		}
		wantRuns := fuzzSegmentRecords(seed, n, twoLengths)
		image, _ := encodeSegment(wantRuns)
		want := flatten(wantRuns)
		// A user may hold a record at each of a subset's two lengths, of
		// which a lookup answers with one.
		held := make(map[pairKey][]sketch.Published)
		for _, p := range want {
			held[pairOf(p)] = append(held[pairOf(p)], p)
		}
		// Negative offsets index from the end (the footer); the fuzzer
		// reaches it without knowing the image length.
		if corruptAt < 0 {
			corruptAt = len(image) + corruptAt
		}
		corrupted := false
		if corruptAt >= 0 && corruptAt < len(image) && corruptXor != 0 {
			image[corruptAt] ^= corruptXor
			corrupted = true
		}
		path := filepath.Join(t.TempDir(), "seg-00000001.seg")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}

		idx, err := openSegment(path)
		if err != nil {
			if !corrupted {
				t.Fatalf("clean segment failed open: %v", err)
			}
			return // loud failure is a correct outcome for corruption
		}
		meta := segmentMeta{seq: 1, path: path, bytes: int64(len(image)), idx: idx}

		// The full read, as replay and compaction do it.
		srcs, err := openSources([]segmentMeta{meta})
		if err != nil {
			t.Fatal(err)
		}
		var got []sketch.Published
		err = mergeSources(srcs, func(r run) error {
			got = append(got, flatten([]run{r})...)
			return nil
		})
		closeSources(srcs)
		if err != nil {
			if !corrupted {
				t.Fatalf("clean segment failed read: %v", err)
			}
		} else {
			if len(got) != len(want) {
				t.Fatalf("read %d records, want %d (corrupted=%v)", len(got), len(want), corrupted)
			}
			for i := range got {
				if !samePub(got[i], want[i]) {
					t.Fatalf("record %d differs: got %+v want %+v", i, got[i], want[i])
				}
			}
		}

		// Range reads across several windows, including past the end.
		for _, from := range []int{0, 1, len(want) / 2, len(want) - 1, len(want) + 3} {
			if from < 0 {
				continue
			}
			got, err := readSegmentRange(meta, nil, from, 70)
			if err != nil {
				if !corrupted {
					t.Fatalf("clean segment failed range read at %d: %v", from, err)
				}
				continue
			}
			if from >= len(want) {
				if len(got) != 0 {
					t.Fatalf("range past the end returned %d records", len(got))
				}
				continue
			}
			wantEnd := min(from+70, len(want))
			if len(got) != wantEnd-from {
				t.Fatalf("range [%d,+70) returned %d records, want %d", from, len(got), wantEnd-from)
			}
			for i, p := range got {
				if !samePub(p, want[from+i]) {
					t.Fatalf("range record %d differs: got %+v want %+v", from+i, p, want[from+i])
				}
			}
		}

		// Point lookups: every present key must resolve to its exact
		// record or fail loudly — never to a different record, and on a
		// clean segment never to a miss.  A key never written must never
		// be found.
		for i, p := range want {
			if i%5 != 0 && len(want) > 20 {
				continue // sample large sets to keep fuzz iterations fast
			}
			got, ok, err := lookupSegment(meta, nil, p.ID, p.Subset.Key())
			if err != nil {
				if !corrupted {
					t.Fatalf("clean segment lookup failed: %v", err)
				}
				continue
			}
			if ok && !slices.ContainsFunc(held[pairOf(p)], func(q sketch.Published) bool { return samePub(got, q) }) {
				t.Fatalf("lookup of %v returned a different record: %+v", keyOf(p), got)
			}
			if !ok && !corrupted {
				t.Fatalf("clean segment lost record %v", keyOf(p))
			}
		}
		if got, ok, err := lookupSegment(meta, nil, bitvec.UserID(7_777_777), bitvec.MustSubset(8).Key()); err == nil && ok {
			t.Fatalf("lookup of a never-written key found %+v", got)
		}
	})
}

// fuzzLog builds a valid log of the given number of windows, each a few
// records over up to three subsets, and returns it with the normalized
// records it holds.
func fuzzLog(t *testing.T, seed uint64, windows int) ([]byte, []sketch.Published) {
	t.Helper()
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	subsets := []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(0, 3, 5), bitvec.Range(0, 20)}
	var all []sketch.Published
	x := seed
	for i := 0; i < windows; i++ {
		x = splitmix64(x)
		window := make([]sketch.Published, 1+x%7)
		for j := range window {
			x = splitmix64(x)
			window[j] = sketch.Published{
				ID:     bitvec.UserID(x % 50),
				Subset: subsets[int(x>>40)%len(subsets)],
				S:      sketch.Sketch{Key: x >> 34, Length: 30},
			}
		}
		if err := w.AppendBatch(window); err != nil {
			t.Fatal(err)
		}
		all = append(all, window...)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return image, flatten(testRuns(all))
}

// FuzzWALReplay feeds replay arbitrary bytes after a valid prefix of v5
// windows: whatever follows — garbage, a frame claiming gigabytes, a frame
// cut short, a whole frame with a flipped bit — replay must not panic,
// must not allocate beyond what the file's size accounts for, must return
// exactly the prefix's records and must truncate the file to exactly the
// prefix.  Unless what follows opens with a whole, checksum-clean frame
// whose runs reach a header of whole words before anything malformed: an
// older binary wrote and acknowledged it, so replay refuses it with
// ErrFormatTooOld and leaves the file byte for byte as it was.
func FuzzWALReplay(f *testing.F) {
	frame := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		out = binary.BigEndian.AppendUint32(out, checksum(payload))
		return append(out, payload...)
	}
	f.Add(uint64(1), 3, []byte(nil))
	f.Add(uint64(2), 0, []byte("garbage after the magic"))
	f.Add(uint64(3), 5, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3})     // a 4 GiB frame
	f.Add(uint64(4), 2, frame([]byte{0, 0, 0, 9}))                               // clean sum, 9 runs, none present
	f.Add(uint64(5), 4, frame([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2})) // a 4 GiB tag
	f.Add(uint64(6), 1, frame(binary.BigEndian.AppendUint32([]byte{0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}, 1<<31)))
	f.Add(uint64(7), 6, walMagic[:])
	// Whole, checksum-clean frames whose one run's id column is malformed:
	// a zero difference, a width of 9, one block where the count wants two,
	// differences that sum past 2⁶⁴ — under words of shape 1, a bit a key.
	tag := bitvec.MustSubset(0).Key()
	ones := onesBits
	f.Add(uint64(8), 2, frame(framePayload(tag, 3, 1, append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 1}, ones(3)...))))
	f.Add(uint64(9), 2, frame(framePayload(tag, 2, 1, append([]byte{9, 0, 0, 0, 0, 0, 0, 0, 5, 1}, ones(2)...))))
	f.Add(uint64(10), 3, frame(framePayload(tag, 70, 1, append(append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1}, bytes.Repeat([]byte{1}, 63)...), ones(70)...))))
	f.Add(uint64(11), 1, frame(framePayload(tag, 2, 1, append([]byte{4, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 9}, ones(2)...))))
	// And frames whose ids are sound and whose words are not: a shape byte
	// of 0 and one past an older binary's widest whole words, which end the
	// valid prefix; a pad bit set, which does too; then two frames of an
	// older binary's whole words, 35 bits a word (one a word of length 31)
	// and 14 bits, which replay refuses with ErrFormatTooOld.
	ids := []byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1}
	f.Add(uint64(12), 2, frame(framePayload(tag, 3, 0, append(bytes.Clone(ids), ones(3)...))))
	f.Add(uint64(13), 2, frame(framePayload(tag, 3, maxWholeShape+1, append(bytes.Clone(ids), make([]byte, 14)...))))
	f.Add(uint64(14), 2, frame(framePayload(tag, 3, 1, append(bytes.Clone(ids), 0x0F))))
	f.Add(uint64(15), 2, frame(framePayload(tag, 3, maxWholeShape, append(bytes.Clone(ids), packBits([]uint64{0x21, 0x21, 31}, 35)...))))
	f.Add(uint64(16), 2, frame(framePayload(tag, 3, sketch.MaxLength+14, append(bytes.Clone(ids), packBits([]uint64{0x21, 1<<13 | 0x11, 0x01}, 14)...))))
	f.Fuzz(func(t *testing.T, seed uint64, windows int, tail []byte) {
		windows = int(uint(windows) % 12)
		tail = bytes.Clone(tail) // the fuzzer keeps its inputs
		prefix, want := fuzzLog(t, seed, windows)
		// The tail must not open with a whole valid window, or it would
		// belong to the prefix: the fuzzer may keep every other byte of one.
		older := false
		if len(tail) >= walFrameHeader {
			n := int64(binary.BigEndian.Uint32(tail))
			if n <= int64(len(tail)-walFrameHeader) && checksum(tail[walFrameHeader:walFrameHeader+n]) == binary.BigEndian.Uint32(tail[4:]) {
				payload := tail[walFrameHeader : walFrameHeader+n]
				if _, err := newRunSet().addFrame(payload); err == nil {
					tail[4] ^= 0x80
				} else {
					older = errors.Is(newRunSet().reserve(payload), ErrFormatTooOld)
				}
			}
		}
		path := filepath.Join(t.TempDir(), walName)
		image := append(prefix, tail...)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := openWAL(path, false, nil)
		runtime.ReadMemStats(&after)
		if older {
			if data, rerr := os.ReadFile(path); !errors.Is(err, ErrFormatTooOld) || rerr != nil || !bytes.Equal(data, image) {
				t.Fatalf("replay of a log ending in an older binary's whole-word frame = %v, the file %d bytes of %d", err, len(data), len(image))
			}
			return
		}
		if err != nil {
			t.Fatalf("replay of a valid prefix and %d more bytes failed: %v", len(tail), err)
		}
		defer w.Close()
		// The read buffer, plus a generous multiple of the file: decoded
		// columns and their growth.  A length field taken at its word would
		// be gigabytes.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*(len(prefix)+len(tail))); grew > bound {
			t.Fatalf("replay of a %d-byte file allocated %d bytes", len(prefix)+len(tail), grew)
		}
		if w.size != int64(len(prefix)) {
			t.Fatalf("replay kept %d bytes, the valid prefix is %d", w.size, len(prefix))
		}
		if info, err := os.Stat(path); err != nil || info.Size() != w.size {
			t.Fatalf("file is %d bytes after replay, want the %d of the prefix (%v)", info.Size(), w.size, err)
		}
		runs, err := w.runs()
		if err != nil {
			t.Fatal(err)
		}
		got := flatten(runs)
		if len(got) != len(want) {
			t.Fatalf("replay returned %d records, the prefix holds %d", len(got), len(want))
		}
		for i := range want {
			if !samePub(got[i], want[i]) {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
