package store

import (
	"bytes"
	"encoding/binary"
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

// FuzzSegmentIndex corrupts an arbitrary byte — a frame's length or
// checksum, a run header's subset, shape byte or count, an id block's
// width byte, first id or differences, the words and their pad bits, the
// footer's record count, anywhere — of a v8 segment written here from a
// fuzzer-shaped record set, with twoLengths one whose subsets are each a
// run at ℓ = 10 and one at ℓ = 20, as the one segment of a one-shard
// store.  Then it drives every read path — Iterate, ReadBatch and Lookup —
// twice: under a store that opened the clean segment and finds it
// corrupted in place, and under one opened on the corrupted segment.  The
// contract: the open fails loudly, or every read returns exactly the
// written records or fails loudly; reads never panic, never return a
// wrong, missing or misattributed record, and hostile lengths never drive
// huge allocations.
func FuzzSegmentIndex(f *testing.F) {
	// first returns where the first run's frame of a seed's segment starts,
	// its subset's compact length, where its id column starts and how long
	// that is, and where its frame ends.
	first := func(seed uint64, n int) (start, nameLen, ids, idsLen, end int) {
		image, runs := encodeSegment(fuzzSegmentRecords(seed, n, false))
		start, nameLen = int(runs[0].start), runs[0].subset.CompactLen()
		ids = start + walFrameHeader + len(appendRunHeader(nil, runs[0].subset, runs[0].count, runs[0].shape, false))
		idsLen, _ = sketch.IDBlocksLen(image[ids:], runs[0].count)
		return start, nameLen, ids, idsLen, int(runs[0].end)
	}
	f.Add(uint64(1), 10, -1, byte(0), false)
	f.Add(uint64(2), 0, -1, byte(0), false)
	at, nameLen, _, _, _ := first(3, 40)
	f.Add(uint64(3), 40, at+3, byte(0x01), false)         // the first frame's length
	f.Add(uint64(3), 40, at+5, byte(0xFF), false)         // its checksum
	f.Add(uint64(3), 40, at+8, byte(0x02), false)         // its run's position count
	f.Add(uint64(3), 40, at+9, byte(0x01), false)         // a position
	f.Add(uint64(3), 40, at+8+nameLen, byte(0x80), false) // the shared-ids bit of its shape byte
	f.Add(uint64(3), 40, at+8+nameLen, byte(0x41), false) // its shape
	f.Add(uint64(3), 40, at+9+nameLen, byte(0x01), false) // the run header's count
	f.Add(uint64(3), 40, at+9+nameLen, byte(0x80), false) // a count padded or cut short
	_, _, ids, idsLen, end := first(4, 200)
	f.Add(uint64(4), 200, ids, byte(0x09), false)   // the first id block's width byte
	f.Add(uint64(4), 200, ids+1, byte(0x80), false) // its first id
	// The width byte made 33, 64 (raw) and 0, and the top bit of the
	// column's last byte of differences: a pad bit, or the widest
	// difference's.
	image, _ := encodeSegment(fuzzSegmentRecords(4, 200, false))
	for _, w := range []byte{33, 64, 0} {
		f.Add(uint64(4), 200, ids, image[ids]^w, false)
	}
	f.Add(uint64(4), 200, ids+idsLen-1, byte(0x80), false)
	f.Add(uint64(4), 200, end-1, byte(0x80), false) // the words' last byte, pad bits and all
	f.Add(uint64(5), 200, 1500, byte(0x80), true)   // a frame of a run at ℓ = 20
	f.Add(uint64(6), 64, -10, byte(0x40), true)     // the last frame's words
	f.Add(uint64(7), 33, -1, byte(0xFF), false)     // the footer's record count
	f.Add(uint64(7), 33, -8, byte(0x01), true)      // its top byte
	f.Fuzz(func(t *testing.T, seed uint64, n, corruptAt int, corruptXor byte, twoLengths bool) {
		if n < 0 || n > 300 {
			n = int(uint(n) % 301)
		}
		wantRuns := fuzzSegmentRecords(seed, n, twoLengths)
		clean, _ := encodeSegment(wantRuns)
		want := flatten(wantRuns)
		// A user may hold a record at each of a subset's two lengths; a
		// lookup answers with the shorter, the first in want's order.
		found := make(map[pairKey]sketch.Published)
		for _, p := range want {
			if _, ok := found[pairOf(p)]; !ok {
				found[pairOf(p)] = p
			}
		}
		// Negative offsets index from the end (the footer); the fuzzer
		// reaches it without knowing the image length.
		if corruptAt < 0 {
			corruptAt = len(clean) + corruptAt
		}
		image := bytes.Clone(clean)
		corrupted := false
		if corruptAt >= 0 && corruptAt < len(image) && corruptXor != 0 {
			image[corruptAt] ^= corruptXor
			corrupted = true
		}
		// A readable error is a correct outcome for corruption alone.
		loud := func(what string, err error) bool {
			t.Helper()
			if err != nil && !corrupted {
				t.Fatalf("%s of a clean segment failed: %v", what, err)
			}
			return err != nil
		}

		reads := func(st *Durable) {
			t.Helper()
			var got []sketch.Published
			if err := st.Iterate(func(p sketch.Published) error { got = append(got, p); return nil }); !loud("Iterate", err) {
				if !slices.EqualFunc(got, want, samePub) {
					t.Fatalf("Iterate returned %d records, want %d (corrupted=%v)", len(got), len(want), corrupted)
				}
			}
			// Batches from several cursors, including past the end.
			for _, from := range []int{0, 1, len(want) / 2, len(want) - 1, len(want) + 3} {
				if from < 0 {
					continue
				}
				got, next, done, err := st.ReadBatch(uint64(from), 70)
				if loud("ReadBatch", err) {
					continue
				}
				lo, hi := min(from, len(want)), min(from+70, len(want))
				if !slices.EqualFunc(got, want[lo:hi], samePub) || next != uint64(from+hi-lo) || done != (hi == len(want)) {
					t.Fatalf("ReadBatch(%d, 70) = %d records, next %d, done %v; want [%d,%d) of %d", from, len(got), next, done, lo, hi, len(want))
				}
			}
			// Point lookups: every present key resolves to its exact record
			// or fails loudly, never to a different record or a miss.  A
			// key never written is never found.
			for i, p := range want {
				if i%5 != 0 && len(want) > 20 {
					continue // sample large sets to keep fuzz iterations fast
				}
				got, ok, err := st.Lookup(p.ID, p.Subset.Key())
				if loud("Lookup", err) {
					continue
				}
				if w := found[pairOf(p)]; !ok || !samePub(got, w) {
					t.Fatalf("Lookup of %v = %+v, %v; want %+v", keyOf(p), got, ok, w)
				}
			}
			if got, ok, err := st.Lookup(bitvec.UserID(7_777_777), bitvec.MustSubset(8).Key()); err == nil && ok {
				t.Fatalf("lookup of a never-written key found %+v", got)
			}
		}

		// A one-shard store whose one segment is the clean image; then the
		// image corrupted in place under it.
		dir := t.TempDir()
		path := filepath.Join(dir, shardDirName(0), segmentName(1))
		if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(dir, 1, manifestFormat, false); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Dir: dir, CompactInterval: -1}
		st, err := Open(opts)
		if err != nil {
			t.Fatalf("clean segment failed open: %v", err)
		}
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		reads(st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// And a store opened on the corrupted image.
		if st, err = Open(opts); loud("Open", err) {
			return
		}
		defer st.Close()
		reads(st)
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
		if x%3 == 0 {
			// A batch as the engine hands one over: the same users under
			// every subset, so that each run after the first shares its ids.
			users := window
			window = nil
			for _, b := range subsets {
				for _, p := range users {
					x = splitmix64(x)
					window = append(window, sketch.Published{ID: p.ID, Subset: b, S: sketch.Sketch{Key: x >> 34, Length: 30}})
				}
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

// FuzzWALReplay feeds replay arbitrary bytes after a valid prefix of v8
// windows, some of whose frames share a run's ids among several subsets: whatever follows — garbage, a frame claiming gigabytes, a frame
// cut short, a whole frame with a flipped bit — replay must not panic,
// must not allocate beyond what the file's size accounts for, must return
// exactly the prefix's records and must truncate the file to exactly the
// prefix.
func FuzzWALReplay(f *testing.F) {
	frame := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		out = binary.BigEndian.AppendUint32(out, checksum(payload))
		return append(out, payload...)
	}
	f.Add(uint64(1), 3, []byte(nil))
	f.Add(uint64(2), 0, []byte("garbage after the magic"))
	f.Add(uint64(3), 5, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3})              // a 4 GiB frame
	f.Add(uint64(4), 2, frame(nil))                                                       // clean sum, no run
	f.Add(uint64(5), 4, frame([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2}))                // 2³² positions
	f.Add(uint64(6), 1, frame([]byte{1, 0, 9, 0xFF, 0xFF, 0xFF, 0xFF, 0x07, 0, 0, 0, 1})) // 2³¹ records
	f.Add(uint64(7), 6, walMagic[:])
	f.Add(uint64(24), 2, frame([]byte{1, 0, 1 | sharedIDs, 0x01}))                         // a first run sharing the ids of none
	f.Add(uint64(25), 2, frame([]byte{1, 0, 1, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1})) // a padded count
	// A clean frame of two runs, the second sharing the first's one id,
	// then the same with the shared run's words cut off.
	shared := append(framePayload(bitvec.MustSubset(0), 1, 1, []byte{0, 0, 0, 0, 0, 0, 0, 0, 5, 1}), 1, 1, 1|sharedIDs, 1)
	f.Add(uint64(26), 2, frame(shared))
	f.Add(uint64(27), 2, frame(shared[:len(shared)-1]))
	// The most ids a byte of log can ask replay for: a run of 4097
	// consecutive ids, a bit a key, shared by 200 runs of other subsets,
	// each 8 ids a byte of its words, then a shared run cut short, so that
	// replay reserves the columns of every run before it refuses the
	// frame.
	var blocks []byte
	for at := 0; at < 4097; at += 64 {
		blocks = binary.BigEndian.AppendUint64(append(blocks, 0), uint64(5+at))
	}
	wide := framePayload(bitvec.MustSubset(0), 4097, 1, append(blocks, onesBits(4097)...))
	for i := 1; i <= 200; i++ {
		wide = append(append(bitvec.MustSubset(i).AppendCompact(wide), 1|sharedIDs), onesBits(4097)...)
	}
	f.Add(uint64(28), 2, frame(append(bitvec.MustSubset(201).AppendCompact(wide), 1|sharedIDs, 0xFF)))
	// Whole, checksum-clean frames whose one run's id column is a v5 one —
	// a zero difference, a width of 9, one block where the count wants two,
	// differences that sum past 2⁶⁴ — now hostile, under words of shape 1,
	// a bit a key.
	tag := bitvec.MustSubset(0)
	ones := onesBits
	f.Add(uint64(8), 2, frame(framePayload(tag, 3, 1, append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 1}, ones(3)...))))
	f.Add(uint64(9), 2, frame(framePayload(tag, 2, 1, append([]byte{9, 0, 0, 0, 0, 0, 0, 0, 5, 1}, ones(2)...))))
	f.Add(uint64(10), 3, frame(framePayload(tag, 70, 1, append(append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1}, bytes.Repeat([]byte{1}, 63)...), ones(70)...))))
	f.Add(uint64(11), 1, frame(framePayload(tag, 2, 1, append([]byte{4, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 9}, ones(2)...))))
	// And v6 ones: a block of 64 consecutive ids, whole and well formed;
	// width 33; a pad bit set; raw ids a width would code; sums past 2⁶⁴;
	// and a count its bytes could not hold even at width 0.
	first := []byte{0, 0, 0, 0, 0, 0, 0, 5}
	f.Add(uint64(17), 2, frame(framePayload(tag, 64, 1, append(append([]byte{0}, first...), ones(64)...))))
	f.Add(uint64(18), 2, frame(framePayload(tag, 2, 1, append(append([]byte{33}, first...), 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x03))))
	f.Add(uint64(19), 2, frame(framePayload(tag, 2, 1, append(append([]byte{1}, first...), 0x03, 0x03))))
	f.Add(uint64(20), 2, frame(framePayload(tag, 2, 1, append(append(append([]byte{64}, first...), 0, 0, 0, 0, 0, 0, 0, 6), 0x03))))
	f.Add(uint64(21), 2, frame(framePayload(tag, 2, 1, []byte{32, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0x03})))
	f.Add(uint64(22), 2, frame(framePayload(tag, 1<<12, 1, append(append([]byte{0}, first...), ones(1<<12)...))))
	// And frames whose ids are sound and whose words are not, each of which
	// ends the valid prefix: a shape byte of 0, one of 31 and one of 255;
	// a pad bit set; and the whole words an older binary wrote, 35 bits a
	// word (one a word of length 31) and 14 bits, under shapes past 30.
	ids := []byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1}
	f.Add(uint64(12), 2, frame(framePayload(tag, 3, 0, append(bytes.Clone(ids), ones(3)...))))
	f.Add(uint64(13), 2, frame(framePayload(tag, 3, 255, append(bytes.Clone(ids), make([]byte, 14)...))))
	f.Add(uint64(14), 2, frame(framePayload(tag, 3, 1, append(bytes.Clone(ids), 0x0F))))
	f.Add(uint64(15), 2, frame(framePayload(tag, 3, sketch.MaxLength+35, append(bytes.Clone(ids), packBits([]uint64{0x21, 0x21, 31}, 35)...))))
	f.Add(uint64(16), 2, frame(framePayload(tag, 3, sketch.MaxLength+14, append(bytes.Clone(ids), packBits([]uint64{0x21, 1<<13 | 0x11, 0x01}, 14)...))))
	f.Add(uint64(23), 2, frame(framePayload(tag, 3, sketch.MaxLength+1, append(bytes.Clone(ids), packBits([]uint64{1, 2, 3}, 31)...))))
	f.Fuzz(func(t *testing.T, seed uint64, windows int, tail []byte) {
		windows = int(uint(windows) % 12)
		tail = bytes.Clone(tail) // the fuzzer keeps its inputs
		prefix, want := fuzzLog(t, seed, windows)
		// The tail must not open with a whole valid window, or it would
		// belong to the prefix: the fuzzer may keep every other byte of one.
		if len(tail) >= walFrameHeader {
			n := int64(binary.BigEndian.Uint32(tail))
			if n <= int64(len(tail)-walFrameHeader) && checksum(tail[walFrameHeader:walFrameHeader+n]) == binary.BigEndian.Uint32(tail[4:]) {
				if _, err := newRunSet().addFrame(tail[walFrameHeader : walFrameHeader+n]); err == nil {
					tail[4] ^= 0x80
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
		if err != nil {
			t.Fatalf("replay of a valid prefix and %d more bytes failed: %v", len(tail), err)
		}
		defer w.Close()
		// The read buffer, plus a generous multiple of the file: decoded
		// columns and their growth.  A run sharing its ids asks for 8 ids a
		// byte of its words at a bit a key, 64 bytes of ids (parseRunHeader);
		// its words, its column encoded again and the size class a large
		// slice is rounded up to — by as much as a quarter — add to that,
		// and seed 28 reads about 82 bytes a byte, under -race too.  The
		// multiple is twice the 64, as it was twice the 32 of runs that each
		// carry their own ids.  A length field taken at its word would be
		// gigabytes.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+128*(len(prefix)+len(tail))); grew > bound {
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
