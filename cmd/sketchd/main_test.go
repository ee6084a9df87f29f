package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

// startDaemon launches the built sketchd binary and waits for its
// listening line, returning the bound address.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "sketchd listening on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("sketchd did not report a listening address")
		return nil, ""
	}
}

// TestSIGKILLMidIngestRecovery is the acceptance test for the durable
// store: a real sketchd process is SIGKILLed while a client streams
// publishes at it, then restarted on the same -data-dir.  The restarted
// daemon must answer a conjunctive query with exactly the set of
// fully-written sketches: every acknowledged publish is present, at most
// the single in-flight record beyond that, and the query result is
// bit-identical to an in-process engine over the recovered record set.
func TestSIGKILLMidIngestRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "sketchd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building sketchd: %v", err)
	}
	dataDir := filepath.Join(tmp, "data")

	const (
		users    = 5000
		p        = 0.3
		tau      = 1e-6
		ackGoal  = 300 // kill after this many acknowledged publishes
		sendMax  = 2000
		shardStr = "4"
	)
	params, err := sketch.ParamsFor(p, users, tau)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.MustSubset(0, 1, 2)
	value := bitvec.MustFromString("101")
	record := func(id uint64) sketch.Published {
		return sketch.Published{
			ID:     bitvec.UserID(id),
			Subset: subset,
			S:      sketch.Sketch{Key: id % (1 << params.Length), Length: params.Length},
		}
	}
	daemonArgs := []string{
		"-addr", "127.0.0.1:0",
		"-users", fmt.Sprint(users),
		"-p", fmt.Sprint(p),
		"-tau", fmt.Sprint(tau),
		"-data-dir", dataDir,
		"-shards", shardStr,
	}

	cmd, addr := startDaemon(t, bin, daemonArgs...)
	cli, err := server.Dial(addr)
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}

	// Stream publishes; every ack is recorded.  The SIGKILL lands while
	// this loop is mid-flight.
	var (
		mu    sync.Mutex
		acked []uint64
		sent  uint64
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(1); id <= sendMax; id++ {
			mu.Lock()
			sent = id
			mu.Unlock()
			if err := cli.Publish(record(id)); err != nil {
				return // connection died at the kill
			}
			mu.Lock()
			acked = append(acked, id)
			mu.Unlock()
		}
	}()
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= ackGoal {
			break
		}
		select {
		case <-done:
			t.Fatal("publisher finished before the kill threshold")
		case <-time.After(time.Millisecond):
		}
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()
	<-done
	cli.Close()
	mu.Lock()
	ackedSet := make(map[uint64]bool, len(acked))
	for _, id := range acked {
		ackedSet[id] = true
	}
	nAcked, nSent := len(acked), sent
	mu.Unlock()

	// Read the surviving records straight off disk (this also performs
	// the torn-tail truncation the daemon would do).
	st, err := store.Open(store.Options{Dir: dataDir, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	var recovered []sketch.Published
	if err := st.Iterate(func(p sketch.Published) error {
		recovered = append(recovered, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recovered) < nAcked || len(recovered) > nAcked+1 {
		t.Fatalf("recovered %d records; acked %d — at most one in-flight record may exceed the acked set", len(recovered), nAcked)
	}
	seen := make(map[uint64]bool, len(recovered))
	for _, p := range recovered {
		id := uint64(p.ID)
		if id < 1 || id > nSent {
			t.Fatalf("recovered record for user %d that was never sent", id)
		}
		if p.S != record(id).S || !p.Subset.Equal(subset) {
			t.Fatalf("recovered record for user %d corrupted: %+v", id, p)
		}
		seen[id] = true
	}
	for id := range ackedSet {
		if !seen[id] {
			t.Fatalf("acknowledged record for user %d lost by the crash", id)
		}
	}

	// The restarted daemon's answer must be bit-identical to an
	// in-process engine over exactly the recovered set.
	key, _ := prf.GeneratorKey("") // the development key the daemon ran with
	h := prf.NewBiased(key, prf.MustProb(p))
	ref, err := engine.New(h, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(recovered); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Conjunction(subset, value)
	if err != nil {
		t.Fatal(err)
	}

	cmd2, addr2 := startDaemon(t, bin, daemonArgs...)
	defer func() {
		cmd2.Process.Signal(os.Interrupt)
		cmd2.Wait()
	}()
	cli2, err := server.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	got, err := ref.Estimator().Fraction(cli2, subset, value)
	if err != nil {
		t.Fatal(err)
	}
	if got.Users != len(recovered) {
		t.Fatalf("restarted daemon answers over %d users, want the %d recovered", got.Users, len(recovered))
	}
	if got.Fraction != want.Fraction || got.Raw != want.Raw {
		t.Fatalf("restarted daemon estimate (%v, %v) differs from reference (%v, %v)",
			got.Fraction, got.Raw, want.Fraction, want.Raw)
	}

	// And the restarted daemon keeps accepting new publishes durably.
	if err := cli2.Publish(record(nSent + 1)); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
}

// TestHealthzDegradedWhileWALRollFails drives the daemon's /healthz check
// against a store whose shard directory cannot take a segment: publishes
// keep being acknowledged (the WAL holds them), the endpoint answers 503
// naming the failing shard count, and it returns to 200 once the directory
// is back and a roll has succeeded.
func TestHealthzDegradedWhileWALRollFails(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, err := store.Open(store.Options{Dir: dir, Shards: 1, FlushThreshold: 64, CompactInterval: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	web := httptest.NewServer(obs.Handler(reg, storeHealth(st), false))
	defer web.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	b := bitvec.MustSubset(0, 1)
	next := uint64(0)
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			next++
			if err := st.Append(sketch.Published{ID: bitvec.UserID(next), Subset: b, S: sketch.Sketch{Key: next % 16, Length: 4}}); err != nil {
				t.Fatalf("Append(%d): %v", next, err)
			}
		}
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthy store: /healthz = %d %q", code, body)
	}

	// Take the shard directory away under the open WAL: appends still
	// reach the log through its descriptor, but no segment file can be
	// created.  (A chmod would not stop a test running as root.)
	shard := filepath.Join(dir, "shard-0000")
	if err := os.Rename(shard, shard+".away"); err != nil {
		t.Fatal(err)
	}
	publish(20)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "1 shard(s) cannot roll") {
		t.Fatalf("shard directory gone: /healthz = %d %q, want 503 naming the failing shard", code, body)
	}
	_, metrics := get("/metrics")
	for _, want := range []string{"store_roll_failing 1", "store_roll_failures_total "} {
		if !strings.Contains(metrics, "\n"+want) {
			t.Errorf("/metrics lacks %q while the roll is failing", want)
		}
	}

	if err := os.Rename(shard+".away", shard); err != nil {
		t.Fatal(err)
	}
	publish(40) // past the back-off: another flush threshold of growth
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("directory restored: /healthz = %d %q", code, body)
	}
	if st.Stats().Segments() == 0 {
		t.Fatal("no segment rolled after the directory came back")
	}
}

// TestPreV3DataDirRefused: started on a data directory an older version
// wrote — last written before store format v3 (data under a manifest
// without a format marker), or under format v4 (the store package's
// committed dir-parent-v4) — the daemon prints store.ErrFormatTooOld,
// which names the versions that still upgrade such a directory, exits
// non-zero and listens on nothing.
func TestPreV3DataDirRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real daemon; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "sketchd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building sketchd: %v", err)
	}
	v4 := filepath.Join("..", "..", "internal", "store", "testdata", "dir-parent-v4")
	v4Log, err := os.ReadFile(filepath.Join(v4, "shard-0000", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	v4Seg, err := os.ReadFile(filepath.Join(v4, "shard-0000", "seg-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for name, files := range map[string]map[string]string{
		"pre-v3": {"SHARDS": "1\n", "shard-0000/wal.log": "\x00\x00\x00\x04\xde\xad\xbe\xef\x01\x02\x03\x04"},
		"v4":     {"SHARDS": "1 v4\n", "shard-0000/wal.log": string(v4Log), "shard-0000/seg-00000001.seg": string(v4Seg)},
	} {
		dataDir := filepath.Join(tmp, name)
		if err := os.MkdirAll(filepath.Join(dataDir, "shard-0000"), 0o755); err != nil {
			t.Fatal(err)
		}
		for file, data := range files {
			if err := os.WriteFile(filepath.Join(dataDir, file), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		out, err := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir).CombinedOutput()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() == 0 {
			t.Fatalf("sketchd on a %s directory: %v\n%s", name, err, out)
		}
		if !strings.Contains(string(out), store.ErrFormatTooOld.Error()) || strings.Contains(string(out), "listening") {
			t.Fatalf("sketchd on a %s directory printed:\n%s", name, out)
		}
		if got, err := os.ReadFile(filepath.Join(dataDir, "shard-0000", "wal.log")); err != nil || string(got) != files["shard-0000/wal.log"] {
			t.Fatalf("sketchd on a %s directory touched its log (%v)", name, err)
		}
	}
}
