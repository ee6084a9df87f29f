package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// TestBatchTruncationEveryOffset is the group-commit tear matrix: two
// commit windows, each several records over two subsets, are written and
// the log is truncated at every byte offset from its first byte to its
// last.  Recovery must replay exactly the fully-written windows — never an
// error, never part of a torn window, never a record from beyond the cut.
func TestBatchTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	b, b2 := bitvec.MustSubset(0, 3, 5), bitvec.MustSubset(2, 6)
	const k = 6
	st, err := Open(Options{Dir: dir, Shards: 1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Window w holds users w*k+1 .. w*k+k, alternating subsets.
	window := func(w int) []sketch.Published {
		batch := make([]sketch.Published, k)
		for i := range batch {
			batch[i] = testRecord(uint64(w*k+i+1), []bitvec.Subset{b, b2}[i%2])
		}
		return batch
	}
	// bounds[w] is where window w starts: a cut at or past bounds[w+1]
	// leaves windows 0..w whole.
	bounds := []int64{st.shards[0].wal.size}
	for w := 0; w < 2; w++ {
		if err := st.shards[0].wal.AppendBatch(window(w)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, st.shards[0].wal.size)
	}
	full, err := os.ReadFile(st.shards[0].wal.path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != bounds[2] {
		t.Fatalf("two windows wrote %d bytes, the log counts %d", len(full), bounds[2])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		wantWindows := 0
		for wantWindows < 2 && bounds[wantWindows+1] <= cut {
			wantWindows++
		}
		st2, tornPath := openTornCopy(t, full[:cut])
		got := indexRecords(t, collect(t, st2))
		if len(got) != wantWindows*k {
			t.Fatalf("cut=%d: recovered %d records, want the %d of %d whole windows", cut, len(got), wantWindows*k, wantWindows)
		}
		for w := 0; w < wantWindows; w++ {
			for _, p := range window(w) {
				if got[keyOf(p)] != p.S {
					t.Fatalf("cut=%d: record %d of whole window %d recovered as %v", cut, p.ID, w, got[keyOf(p)])
				}
			}
		}
		// The torn suffix must be physically gone so appends restart
		// clean (a cut inside the magic leaves a new, empty log).
		if info, err := os.Stat(tornPath); err != nil || info.Size() != bounds[wantWindows] {
			t.Fatalf("cut=%d: wal not truncated to %d (size %v, err %v)", cut, bounds[wantWindows], info.Size(), err)
		}
		if err := st2.Append(testRecord(100, b)); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if got := collect(t, st2); len(got) != wantWindows*k+1 {
			t.Fatalf("cut=%d: after recovery append, %d records, want %d", cut, len(got), wantWindows*k+1)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// tortureSubset is the subset every torture-child record publishes for.
func tortureSubset() bitvec.Subset { return bitvec.MustSubset(0, 3, 5) }

const (
	tortureWriters   = 8
	tortureIDStride  = 1_000_000 // writer g owns ids g*stride+1 ...
	tortureMaxPerGor = 200_000
)

// TestGroupCommitTortureChild is the re-exec helper for
// TestSIGKILLMidCommitWindow: it opens a durable store in fsync mode and
// streams concurrent appends — sharing commit windows — printing
// "ack <id>" only after each Append returns.  The parent SIGKILLs it
// mid-stream.
func TestGroupCommitTortureChild(t *testing.T) {
	dir := os.Getenv("STORE_TORTURE_DIR")
	if dir == "" {
		t.Skip("re-exec helper for TestSIGKILLMidCommitWindow")
	}
	st, err := Open(Options{Dir: dir, Shards: 2, Fsync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := tortureSubset()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < tortureWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(1); i <= tortureMaxPerGor; i++ {
				id := uint64(g)*tortureIDStride + i
				if err := st.Append(testRecord(id, b)); err != nil {
					return
				}
				mu.Lock()
				fmt.Printf("ack %d\n", id)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

// TestSIGKILLMidCommitWindow is the process-level group-commit torture:
// a child process appends from many goroutines sharing fsync'd commit
// windows and reports each acknowledged record; the parent SIGKILLs it
// mid-window, reopens the data directory and requires (1) every
// acknowledged record recovered intact, (2) nothing recovered that was
// never sent, and (3) at most a small bound of durable-but-unreported
// records — the commit that was in flight when the kill landed.
func TestSIGKILLMidCommitWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs and kills a child process; skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestGroupCommitTortureChild$", "-test.v")
	cmd.Env = append(os.Environ(), "STORE_TORTURE_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const killAfter = 2000
	acked := make(map[uint64]bool)
	sc := bufio.NewScanner(stdout)
	killed := false
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "ack ")
		if !ok {
			continue // test framework chatter
		}
		id, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			t.Fatalf("bad ack line %q: %v", line, err)
		}
		acked[id] = true
		if !killed && len(acked) >= killAfter {
			// SIGKILL lands while commit windows are mid-flight; keep
			// draining the pipe, since acks written before the kill may
			// still be buffered in it and they are real acknowledgements.
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
	}
	cmd.Wait()
	if !killed {
		t.Fatalf("child exited after only %d acks, before the kill threshold %d", len(acked), killAfter)
	}

	st, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer st.Close()
	b := tortureSubset()
	recovered := make(map[uint64]bool)
	if err := st.Iterate(func(p sketch.Published) error {
		id := uint64(p.ID)
		g, i := id/tortureIDStride, id%tortureIDStride
		if g >= tortureWriters || i < 1 || i > tortureMaxPerGor {
			t.Fatalf("recovered record for user %d that was never sent", id)
		}
		want := testRecord(id, b)
		if p.S != want.S || !p.Subset.Equal(b) {
			t.Fatalf("recovered record for user %d corrupted: %+v", id, p)
		}
		recovered[id] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := range acked {
		if !recovered[id] {
			t.Fatalf("acknowledged record for user %d lost by SIGKILL (acked %d, recovered %d)", id, len(acked), len(recovered))
		}
	}
	// Durable-but-unreported records can only come from (a) an Append
	// whose ack print raced the kill — at most one per writer — and (b)
	// the members of the one commit window whose fsync completed but
	// whose cohort was not yet woken — at most one parked record per
	// writer.  Anything beyond that bound would mean unacknowledged
	// suffixes survive, which group commit must never allow.
	if extra := len(recovered) - len(acked); extra > 2*tortureWriters {
		t.Fatalf("recovered %d records beyond the %d acknowledged; bound is %d", extra, len(acked), 2*tortureWriters)
	}
}

// The legacy fixtures are hand-built, byte for byte what the old writers
// produced, so their absence from the tree does not silence the upgrade
// test.  legacyOrder puts records in the canonical (subset key, user id)
// order legacy segments were written in.
func legacyOrder(ps []sketch.Published) []sketch.Published { return flatten(testRuns(ps)) }

// encodeSegmentV1 renders records in the PR-8-era unindexed segment
// format.
func encodeSegmentV1(records []sketch.Published) []byte {
	buf := make([]byte, 0, 16+len(records)*48)
	buf = append(buf, segMagicV1[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(records)))
	for _, p := range records {
		buf = binary.BigEndian.AppendUint32(buf, uint32(wire.PublishedEncodedLen(p)))
		buf = wire.AppendPublished(buf, p)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// encodeWALFrames renders records as the per-record frames of a legacy
// log, which are also the frames of a v2 segment.
func encodeWALFrames(buf []byte, records []sketch.Published) []byte {
	for _, p := range records {
		payload := wire.EncodePublished(p)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	return buf
}

// encodeSegmentV2 renders records in the PR-9-era indexed format: frames
// with per-record sums, a sparse key index of stride 16 that repeats the
// subset key in every entry, a bloom filter — which the legacy reader
// never reads, so its bits are left clear — and the 16-byte footer.
func encodeSegmentV2(records []sketch.Published) []byte {
	const stride = 16
	buf := append([]byte(nil), segMagicV2[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(records)))
	var section []byte
	section = binary.BigEndian.AppendUint16(section, stride)
	section = binary.BigEndian.AppendUint32(section, uint32((len(records)+stride-1)/stride))
	bloom := make([]byte, max(8, (len(records)*10+7)/8))
	for i, p := range records {
		if i%stride == 0 {
			section = binary.BigEndian.AppendUint64(section, uint64(len(buf)))
			section = binary.BigEndian.AppendUint64(section, uint64(p.ID))
			section = binary.BigEndian.AppendUint16(section, uint16(p.Subset.TagLen()))
			section = p.Subset.AppendTag(section)
		}
		buf = encodeWALFrames(buf, []sketch.Published{p})
	}
	section = binary.BigEndian.AppendUint32(section, uint32(len(bloom)))
	section = append(append(section, 6), bloom...)
	indexOff := uint64(len(buf))
	buf = append(buf, section...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(section))
	buf = binary.BigEndian.AppendUint64(buf, indexOff)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestV1DataDirBackwardCompat is the legacy-upgrade test.  It builds an
// old data directory by hand — per shard a v1 segment, a newer v2 segment
// and a per-record log with a torn tail, holding overwrites of one another
// — under a manifest without the v3 marker, and requires that Open (1)
// serves exactly the newest-wins record set through Iterate, ReadBatch and
// Lookup, (2) leaves every file v3 and the manifest marked, (3) does so
// again after crashes between a rewrite and its rename and between the
// log's segment and its new log, and (4) rewrites nothing the second time.
func TestV1DataDirBackwardCompat(t *testing.T) {
	b := bitvec.MustSubset(0, 3, 5)
	b2 := bitvec.MustSubset(1, 4)
	// generation g of user id's record for b: later generations overwrite.
	gen := func(id uint64, g uint64) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: (id + 100*g) % 1024, Length: 10}}
	}
	const shards = 2
	var v1, v2, log [shards][]sketch.Published
	var newest []sketch.Published // oldest source first: testRuns keeps the last
	add := func(dst *[shards][]sketch.Published, p sketch.Published) {
		s := userShard(p.ID, shards)
		dst[s] = append(dst[s], p)
		newest = append(newest, p)
	}
	for id := uint64(1); id <= 40; id++ {
		add(&v1, gen(id, 0))
	}
	for id := uint64(20); id <= 45; id++ { // overwrites 20..40
		add(&v2, gen(id, 1))
		add(&v2, testRecord(id, b2))
	}
	for id := uint64(30); id <= 50; id++ { // overwrites 30..45
		add(&log, gen(id, 2))
	}
	for id := uint64(30); id <= 35; id++ { // and itself: arrival order decides
		add(&log, gen(id, 3))
	}
	want := indexRecords(t, flatten(testRuns(newest)))

	build := func(t *testing.T) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			shardDir := filepath.Join(dir, shardDirName(s))
			if err := os.MkdirAll(shardDir, 0o755); err != nil {
				t.Fatal(err)
			}
			// A torn frame follows the log's records, as a crash leaves it.
			torn := encodeWALFrames(nil, log[s])
			torn = append(torn, encodeWALFrames(nil, []sketch.Published{gen(999, 9)})[:20]...)
			for name, image := range map[string][]byte{
				segmentName(1): encodeSegmentV1(legacyOrder(v1[s])),
				segmentName(2): encodeSegmentV2(legacyOrder(v2[s])),
				walName:        torn,
			} {
				if err := os.WriteFile(filepath.Join(shardDir, name), image, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	// check opens dir and requires the expected set on every read path and
	// v3 files on disk; it returns every file's identity.
	check := func(t *testing.T, dir string) map[string]os.FileInfo {
		st, err := Open(Options{Dir: dir, CompactInterval: -1})
		if err != nil {
			t.Fatalf("opening a legacy data dir: %v", err)
		}
		defer st.Close()
		got := indexRecords(t, collect(t, st))
		streamed := coverage(drainBatches(t, st, 7))
		if len(got) != len(want) || len(streamed) != len(want) {
			t.Fatalf("legacy dir yields %d records (%d streamed), want %d", len(got), len(streamed), len(want))
		}
		for k, s := range want {
			if got[k] != s || streamed[k].S != s {
				t.Fatalf("record %v after the upgrade: iterated %v, streamed %v, want %v", k, got[k], streamed[k].S, s)
			}
			if p, ok, err := st.Lookup(k.id, k.subset); err != nil || !ok || p.S != s {
				t.Fatalf("Lookup(%v) after the upgrade = %+v %v %v, want %v", k, p, ok, err, s)
			}
		}
		if _, ok, err := st.Lookup(bitvec.UserID(999), b.Key()); err != nil || ok {
			t.Fatalf("Lookup of the torn frame's user = %v %v, want a miss", ok, err)
		}
		files := make(map[string]os.FileInfo)
		for s := 0; s < shards; s++ {
			shardDir := filepath.Join(dir, shardDirName(s))
			entries, err := os.ReadDir(shardDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				path := filepath.Join(shardDir, e.Name())
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				magic := segMagic
				if e.Name() == walName {
					magic = walMagic
				} else if _, ok := parseSegmentName(e.Name()); !ok {
					t.Fatalf("stray file %s after the upgrade", path)
				}
				if len(data) < 8 || [8]byte(data[:8]) != magic {
					t.Fatalf("%s is not v3 after the upgrade", path)
				}
				if files[path], err = e.Info(); err != nil {
					t.Fatal(err)
				}
			}
		}
		manifest := filepath.Join(dir, manifestName)
		if data, err := os.ReadFile(manifest); err != nil || string(data) != "2 v3\n" {
			t.Fatalf("manifest after the upgrade = %q, %v", data, err)
		}
		if files[manifest], err = os.Stat(manifest); err != nil {
			t.Fatal(err)
		}
		return files
	}

	t.Run("upgrade once", func(t *testing.T) {
		dir := build(t)
		first := check(t, dir)
		if len(first) != shards*4+1 {
			t.Fatalf("%d files after the upgrade, want per shard two rewritten segments, the log's segment and the log, plus the manifest", len(first))
		}
		second := check(t, dir)
		for path, info := range first {
			if again, ok := second[path]; !ok || !os.SameFile(info, again) || !info.ModTime().Equal(again.ModTime()) {
				t.Fatalf("a second Open rewrote %s", path)
			}
		}
		if len(second) != len(first) {
			t.Fatalf("a second Open left %d files, the first %d", len(second), len(first))
		}
	})
	t.Run("crash between rewrite and rename", func(t *testing.T) {
		dir := build(t)
		for s := 0; s < shards; s++ {
			// The v1 segment's v3 image was being written when the crash
			// came: a partial temporary file beside the untouched original.
			image, _ := encodeSegment(testRuns(v1[s]))
			tmp := filepath.Join(dir, shardDirName(s), segmentName(1)+".tmp")
			if err := os.WriteFile(tmp, image[:len(image)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		check(t, dir)
	})
	t.Run("crash between the log's segment and its new log", func(t *testing.T) {
		dir := build(t)
		for s := 0; s < shards; s++ {
			writeTestSegment(t, filepath.Join(dir, shardDirName(s)), 3, log[s])
		}
		check(t, dir)
	})
	t.Run("an older binary refuses the directory", func(t *testing.T) {
		// What a pre-v3 readManifest did with the line: Atoi of the
		// trimmed content.  It must fail, or that binary would go on to
		// take the v3 log for a torn legacy one and truncate it.
		dir := build(t)
		check(t, dir)
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil {
			t.Fatalf("manifest %q still parses as a bare shard count", data)
		}
	})
}

// testRecordsRange fabricates records for ids lo..hi over b.
func testRecordsRange(lo, hi uint64, b bitvec.Subset) []sketch.Published {
	out := make([]sketch.Published, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		out = append(out, testRecord(id, b))
	}
	return out
}

// TestConcurrentGroupCommitRace exercises the full concurrent surface
// under the race detector: many goroutines of fsync'd appends sharing
// commit windows, interleaved with Lookups of just-acknowledged records
// (acknowledged means immediately queryable), ReadBatch streams,
// snapshot rolls via Flush, and compaction passes.  The tiny flush
// threshold forces rolls and compactions to overlap the appends.
func TestConcurrentGroupCommitRace(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{
		Dir:             dir,
		Shards:          2,
		Fsync:           true,
		FlushThreshold:  4 << 10,
		CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := tortureSubset()
	const (
		writers   = 8
		perWriter = 150
		batchSize = 10
	)
	var writersWG, churnWG sync.WaitGroup
	errc := make(chan error, writers+2)
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			if g%2 == 1 {
				// Half the writers land their records through AppendBatch,
				// so multi-record waiters and per-record Appends share the
				// same commit windows under the race detector.
				for lo := uint64(1); lo <= perWriter; lo += batchSize {
					batch := make([]sketch.Published, 0, batchSize)
					for i := lo; i < lo+batchSize && i <= perWriter; i++ {
						batch = append(batch, testRecord(uint64(g)*tortureIDStride+i, b))
					}
					if failed, err := st.AppendBatch(batch); err != nil || len(failed) > 0 {
						errc <- fmt.Errorf("append batch at %d: %d failed: %w", lo, len(failed), err)
						return
					}
					for _, p := range batch {
						got, ok, err := st.Lookup(p.ID, b.Key())
						if err != nil || !ok || got.S != p.S {
							errc <- fmt.Errorf("batch-acknowledged record %d not queryable: %+v %v %v", p.ID, got, ok, err)
							return
						}
					}
				}
				return
			}
			for i := uint64(1); i <= perWriter; i++ {
				id := uint64(g)*tortureIDStride + i
				p := testRecord(id, b)
				if err := st.Append(p); err != nil {
					errc <- fmt.Errorf("append %d: %w", id, err)
					return
				}
				// Acknowledged means immediately queryable.
				got, ok, err := st.Lookup(p.ID, b.Key())
				if err != nil || !ok || got.S != p.S {
					errc <- fmt.Errorf("acknowledged record %d not queryable: %+v %v %v", id, got, ok, err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	churnWG.Add(2)
	go func() { // roll + compaction churn
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Flush(); err != nil {
				errc <- fmt.Errorf("flush: %w", err)
				return
			}
			if err := st.CompactNow(2); err != nil {
				errc <- fmt.Errorf("compact: %w", err)
				return
			}
		}
	}()
	go func() { // concurrent batch streaming
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cursor, done := uint64(0), false
			for !done {
				var err error
				_, cursor, done, err = st.ReadBatch(cursor, 64)
				if err != nil {
					errc <- fmt.Errorf("readbatch: %w", err)
					return
				}
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	churnWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every acknowledged record present exactly once with the right
	// contents, across WAL, rolled and compacted segments.
	got := indexRecords(t, collect(t, st))
	if len(got) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(got), writers*perWriter)
	}
	for g := 0; g < writers; g++ {
		for i := uint64(1); i <= perWriter; i++ {
			id := uint64(g)*tortureIDStride + i
			want := testRecord(id, b)
			if got[keyOf(want)] != want.S {
				t.Fatalf("record %d missing or corrupt after concurrent torture", id)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the same set must replay, proving the acknowledged records
	// were durable, not just cached.
	st2, err := Open(Options{Dir: dir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	again := indexRecords(t, collect(t, st2))
	if len(again) != writers*perWriter {
		t.Fatalf("reopen recovered %d records, want %d", len(again), writers*perWriter)
	}
}
