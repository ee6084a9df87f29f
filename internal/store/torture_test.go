package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
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

// TestOlderDirRefused: a data directory an older version wrote, in any form
// this one does not read, is refused by Open with ErrFormatTooOld, which
// names the directory and the version that upgrades it, and Open writes
// nothing: every file keeps its bytes and modification time — the log is
// not truncated — and no file but the lock is created.  The forms: data
// under a manifest without a format marker, or under none (before v3); a
// manifest marked v3, v4, v5, v6, v7, v5-converting, v6-converting,
// v7-converting or v8-converting (the v4 directory the last v4 binary
// wrote, under its own marker and under the mark of a conversion under
// way; the committed v5 directories under theirs, the one holding runs of
// whole words also without its first segment, beside a shard with a torn
// log tail and under a manifest that counts a missing shard; the v6 one
// under its own, with a segment corrupt beside a torn log and beside a
// missing shard, and under the marks of a conversion to v6 or v7 under
// way; and the v7 one likewise, under the marks of a conversion to v8
// under way).  A directory a
// version that converts it wrote is refused too, if its conversion finds a
// segment corrupt, and written in no shard: not the torn tail of another
// shard's log cut, not a shard directory created, not its manifest marked.
// A directory in the pre-v3 state that holds no data is one a crash left
// at creation, and opens.
func TestOlderDirRefused(t *testing.T) {
	// A per-record log as the old versions wrote it: a length, an IEEE
	// sum, a payload.  No reader is left to ask what the payload says.
	oldLog := []byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
	build := func(t *testing.T, manifest string, files map[string][]byte) string {
		dir := t.TempDir()
		if manifest != "" {
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < 2; s++ {
			shardDir := filepath.Join(dir, shardDirName(s))
			if err := os.MkdirAll(shardDir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, image := range files {
				if err := os.WriteFile(filepath.Join(shardDir, name), image, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	// fixture copies a committed directory, with its manifest replaced
	// when one is given and without the files of shard 0 named.
	fixture := func(t *testing.T, name, manifest string, without ...string) string {
		dir := copyFixture(t, filepath.Join("testdata", name))
		if manifest != "" {
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, file := range without {
			if err := os.Remove(filepath.Join(dir, shardDirName(0), file)); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for name, c := range map[string]struct {
		dir   func(t *testing.T) string
		where string // what the refusal names besides the directory
		want  error
	}{
		"a log under a bare shard count": {func(t *testing.T) string { return build(t, "2\n", map[string][]byte{walName: oldLog}) }, "no format marker", ErrFormatTooOld},
		"a segment under a bare shard count": {func(t *testing.T) string {
			return build(t, "2\n", map[string][]byte{walName: nil, segmentName(1): append([]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 1}, oldLog...)})
		}, "no format marker", ErrFormatTooOld},
		"a log and no manifest":              {func(t *testing.T) string { return build(t, "", map[string][]byte{walName: oldLog}) }, "no format marker", ErrFormatTooOld},
		"a v3 manifest":                      {func(t *testing.T) string { return build(t, "2 v3\n", map[string][]byte{walName: oldLog}) }, "marked v3", ErrFormatTooOld},
		"the v4 directory":                   {func(t *testing.T) string { return fixture(t, "dir-parent-v4", "") }, "marked v4", ErrFormatTooOld},
		"the v4 directory mid-conversion":    {func(t *testing.T) string { return fixture(t, "dir-parent-v4", "1 v5-converting\n") }, "marked v5-converting", ErrFormatTooOld},
		"the v5 directory":                   {func(t *testing.T) string { return fixture(t, "dir-v5", "") }, "marked v5", ErrFormatTooOld},
		"a segment of whole words":           {func(t *testing.T) string { return fixture(t, "dir-parent-v5", "") }, "marked v5", ErrFormatTooOld},
		"a log frame of whole words":         {func(t *testing.T) string { return fixture(t, "dir-parent-v5", "", segmentName(1)) }, "marked v5", ErrFormatTooOld},
		"the v5 directory mid-conversion":    {func(t *testing.T) string { return fixture(t, "dir-v5", "1 v6-converting\n") }, "marked v6-converting", ErrFormatTooOld},
		"the v6 directory marked converting": {func(t *testing.T) string { return fixture(t, "dir-v6", "2 v6-converting\n") }, "marked v6-converting", ErrFormatTooOld},
		"the v6 directory":                   {func(t *testing.T) string { return fixture(t, "dir-v6", "") }, "marked v6", ErrFormatTooOld},
		"the v6 directory mid-conversion":    {func(t *testing.T) string { return fixture(t, "dir-v6", "2 v7-converting\n") }, "marked v7-converting", ErrFormatTooOld},
		"the v7 directory":                   {func(t *testing.T) string { return fixture(t, "dir-v7", "") }, "marked v7", ErrFormatTooOld},
		"the v7 directory mid-conversion":    {func(t *testing.T) string { return fixture(t, "dir-v7", "2 v8-converting\n") }, "marked v8-converting", ErrFormatTooOld},
		// Beside a shard this version wrote with a torn log tail, or a
		// missing shard, the v5 directory of whole words is refused by its
		// marker before any shard is read.
		"a whole-word shard beside a torn log": {func(t *testing.T) string {
			dir := t.TempDir()
			st, err := Open(Options{Dir: dir, Shards: 2, CompactInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.AppendBatch(testRecordsRange(1, 40, bitvec.MustSubset(0, 2))); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			tornLog(t, filepath.Join(dir, shardDirName(0), walName))
			if err := os.RemoveAll(filepath.Join(dir, shardDirName(1))); err != nil {
				t.Fatal(err)
			}
			old := fixture(t, "dir-parent-v5", "")
			if err := os.Rename(filepath.Join(old, shardDirName(0)), filepath.Join(dir, shardDirName(1))); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("2 v5\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}, "marked v5", ErrFormatTooOld},
		"a whole-word shard and a missing one": {func(t *testing.T) string { return fixture(t, "dir-parent-v5", "2 v5\n") }, "marked v5", ErrFormatTooOld},
		// Refused in one shard, a directory is written in none: not the torn
		// tail of another shard's log, not a shard directory or log missing.
		"a corrupt v6 shard beside a torn log": {func(t *testing.T) string {
			dir := fixture(t, "dir-v6", "")
			tornLog(t, filepath.Join(dir, shardDirName(0), walName))
			flipByte(t, filepath.Join(dir, shardDirName(1), segmentName(1)), 40)
			return dir
		}, "marked v6", ErrFormatTooOld},
		"a corrupt v6 shard and a missing one": {func(t *testing.T) string {
			dir := fixture(t, "dir-v6", "3 v6\n")
			flipByte(t, filepath.Join(dir, shardDirName(0), segmentName(2)), 40)
			return dir
		}, "marked v6", ErrFormatTooOld},
		"a corrupt v7 shard beside a torn log": {func(t *testing.T) string {
			dir := fixture(t, "dir-v7", "")
			tornLog(t, filepath.Join(dir, shardDirName(0), walName))
			flipByte(t, filepath.Join(dir, shardDirName(1), segmentName(2)), 40)
			return dir
		}, "marked v7", ErrFormatTooOld},
		"a corrupt v7 shard and a missing one": {func(t *testing.T) string {
			dir := fixture(t, "dir-v7", "3 v7\n")
			flipByte(t, filepath.Join(dir, shardDirName(0), segmentName(4)), 40)
			return dir
		}, "marked v7", ErrFormatTooOld},
		"a corrupt v8 shard beside a torn log": {func(t *testing.T) string {
			dir := fixture(t, "dir-v8", "")
			tornLog(t, filepath.Join(dir, shardDirName(0), walName))
			flipByte(t, filepath.Join(dir, shardDirName(1), segmentName(4)), 40)
			return dir
		}, filepath.Join(shardDirName(1), segmentName(4)), ErrSegmentCorrupt},
		"a corrupt v8 shard and a missing one": {func(t *testing.T) string {
			dir := fixture(t, "dir-v8", "3 v8\n")
			flipByte(t, filepath.Join(dir, shardDirName(0), segmentName(6)), 40)
			return dir
		}, filepath.Join(shardDirName(0), segmentName(6)), ErrSegmentCorrupt},
	} {
		t.Run(name, func(t *testing.T) {
			dir := c.dir(t)
			before := dirState(t, dir)
			st, err := Open(Options{Dir: dir, CompactInterval: -1})
			if !errors.Is(err, c.want) {
				if err == nil {
					st.Close()
				}
				t.Fatalf("Open = %v, want %v", err, c.want)
			}
			named := []string{dir, c.where}
			if c.want == ErrFormatTooOld {
				named = append(named, "79f51fd", "6101b31", "33ba9b8", "79b9228")
			}
			for _, named := range named {
				if !strings.Contains(err.Error(), named) {
					t.Fatalf("the refusal %q does not name %q", err, named)
				}
			}
			after := dirState(t, dir)
			for path, was := range before {
				if after[path] != was {
					t.Fatalf("the refused Open touched %s", path)
				}
			}
			for path, now := range after {
				if _, ok := before[path]; !ok && (filepath.Base(path) != "LOCK" || !strings.HasPrefix(now, "@")) {
					t.Fatalf("the refused Open created %s", path)
				}
			}
		})
	}
	t.Run("no data under a bare shard count", func(t *testing.T) {
		dir := build(t, "2\n", map[string][]byte{walName: nil})
		st, err := Open(Options{Dir: dir, CompactInterval: -1})
		if err != nil {
			t.Fatalf("a directory a crash left at its creation does not open: %v", err)
		}
		defer st.Close()
		if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(data) != "2 v9\n" {
			t.Fatalf("manifest = %q, %v", data, err)
		}
	})
}

// tornLog appends half of a frame to the log at path, as a crash
// mid-append leaves it.
func tornLog(t *testing.T, path string) {
	t.Helper()
	frame := windowFrame(t, testRecord(41, bitvec.MustSubset(0, 2)))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// flipByte inverts byte at of the file at path.
func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[at] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyFixture copies the files of a committed directory — its manifest
// and its shard directories' files — into a fresh directory.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	return dir
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
