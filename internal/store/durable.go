package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/sketch"
)

// Defaults for Options fields left zero.
const (
	// DefaultShards is the default shard count for new data directories.
	DefaultShards = 8
	// DefaultFlushThreshold is the WAL size at which a shard rolls its
	// log into an immutable segment.
	DefaultFlushThreshold = 4 << 20
	// DefaultCompactThreshold is the segment count at which a shard is
	// compacted.
	DefaultCompactThreshold = 4
	// DefaultCompactInterval is how often the background loop checks
	// shards for compaction work.
	DefaultCompactInterval = 2 * time.Second
	// DefaultFsyncWindow is the default group-commit window: how long a
	// shard's committer waits for in-flight Appends to join an open
	// window before fsyncing it.  The window closes early the moment no
	// Append is mid-entry, so a lone writer never pays it.
	DefaultFsyncWindow = 2 * time.Millisecond
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrFormatTooOld is returned by Open, having written nothing, for a data
// directory an older version wrote in a form this one does not read: a
// manifest marked v3, v4 or v5-converting (a conversion to v5 under way);
// a segment or log holding a checksum-clean run of whole words (a v5 file
// written before a run held one length); or data under a manifest with no
// format marker (before v3: per-record logs, v1 or v2 segments).  The
// version of commit 79b9228 is the last that converts v3, v4 and whole
// words to v5 runs of one length; the version of commit b04e7f7, the last
// that writes v3, upgrades a directory from before v3.  Open the directory
// once with each that applies, oldest first, then with this one.
var ErrFormatTooOld = errors.New("store: data directory predates store format v5 at one sketch length a run, the only one this version reads; open it once with the version of commit 79b9228 (the last that converts formats v3 and v4 and runs of whole words) — first with that of commit b04e7f7 (the last that writes format v3) if it predates v3 — and then with this one")

// Options configures a durable store.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Shards is the number of shards for a fresh directory (default
	// DefaultShards).  Reopening an existing directory always adopts the
	// shard count found on disk, since records are placed by
	// hash(userID) % shards.
	Shards int
	// Fsync, when true, fsyncs the WAL before any append is acknowledged,
	// extending the durability guarantee from process crashes to machine
	// crashes.  Appends are group-committed: concurrent Appends to a shard
	// share one write and one fsync (see FsyncWindow), so durable
	// throughput scales with writer concurrency instead of paying one
	// fsync per record.
	Fsync bool
	// FsyncWindow bounds how long a shard's group-commit leader waits for
	// straggling concurrent Appends to join an open commit window before
	// fsyncing it (default DefaultFsyncWindow; negative means zero — commit
	// the instant the cohort is complete).  The window always closes early
	// when no Append is in flight, so this is a latency ceiling for
	// stragglers, not a floor added to every append.  Only meaningful with
	// Fsync; without it appends need no batching to be fast.
	FsyncWindow time.Duration
	// FlushThreshold is the WAL size in bytes that triggers a roll into a
	// segment (default DefaultFlushThreshold).
	FlushThreshold int64
	// CompactThreshold is the per-shard segment count that triggers
	// compaction (default DefaultCompactThreshold).
	CompactThreshold int
	// CompactInterval is the background compaction poll period (default
	// DefaultCompactInterval).  Negative disables the background loop;
	// CompactNow still works.
	CompactInterval time.Duration
	// Metrics, when non-nil, registers the store's instruments (WAL
	// append/fsync latency histograms, roll/compaction counters, per-shard
	// size gauges) on the given registry.  Nil leaves the store entirely
	// uninstrumented at zero hot-path cost.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	if o.FlushThreshold <= 0 {
		o.FlushThreshold = DefaultFlushThreshold
	}
	if o.CompactThreshold <= 0 {
		o.CompactThreshold = DefaultCompactThreshold
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = DefaultCompactInterval
	}
	if o.FsyncWindow == 0 {
		o.FsyncWindow = DefaultFsyncWindow
	} else if o.FsyncWindow < 0 {
		o.FsyncWindow = 0
	}
	return o
}

// dshard is one shard: a WAL plus its immutable segments.
type dshard struct {
	mu      sync.Mutex
	id      int
	dir     string
	wal     *wal
	segs    []segmentMeta
	nextSeq uint64
	// tmps are the .tmp files a crash mid-flush left, found by loadShard
	// and removed by ready.
	tmps []string
	// compacting serializes compactions on the shard (background loop vs
	// CompactNow) so the merge can run without holding mu.
	compacting bool
	// rollFailedAt is the WAL size when the last inline roll failed
	// (0 = healthy).  Appends retry the roll only after another flush
	// threshold of growth, so a stuck segment directory costs one failed
	// attempt per threshold instead of one per append.
	rollFailedAt int64
	// closed is set (under mu) at the start of Close, so an Append that
	// raced past the store-level check still fails with ErrClosed before
	// touching the WAL — and everything the close-time Flush syncs is
	// everything that was ever acknowledged.
	closed bool
	// flushThreshold is Options.FlushThreshold, copied per shard so the
	// group-commit leader can roll without reaching back into the store.
	flushThreshold int64
	// gc, when non-nil (Options.Fsync), is the shard's group-commit
	// pipeline: Appends park on it and a single leader pays one fsync for
	// the whole window.  See groupcommit.go.
	gc *groupCommit
	// m, when non-nil, records roll/compaction activity; see metrics.go.
	m *metrics
}

// Durable is the sharded on-disk Store.
type Durable struct {
	opts   Options
	lock   *dirLock
	shards []*dshard
	// replayTime is how long Open spent replaying WALs and validating
	// segments, exposed as the store_replay_seconds gauge.
	replayTime time.Duration

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// Open opens (creating if necessary) a durable store in opts.Dir,
// replaying every shard's WAL — truncating torn tails — and validating
// every segment.  A directory an older version wrote is refused with
// ErrFormatTooOld before any shard is written to.  The returned store is
// ready for Append and Iterate.
func Open(opts Options) (*Durable, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	nShards, format, err := readManifest(opts.Dir)
	if err != nil {
		lock.Unlock()
		return nil, err
	}
	found, err := existingShards(opts.Dir)
	if err != nil {
		lock.Unlock()
		return nil, err
	}
	if format == "" {
		// No marker: a new directory, one a crash left before any record
		// was acknowledged — or one from before v3.
		if old, err := holdsData(opts.Dir, found); err != nil || old {
			lock.Unlock()
			if err == nil {
				err = formatTooOld(opts.Dir, "holds data under a manifest with no format marker")
			}
			return nil, err
		}
	}
	if nShards == 0 {
		// No manifest: adopt any shard directories already present (a
		// pre-manifest or hand-built layout), else take opts.Shards, and
		// persist the count before creating a single shard directory —
		// a crash mid-creation must not shrink N on the next open, since
		// records are placed by hash % N.
		nShards = found
		if nShards == 0 {
			nShards = opts.Shards
		}
	}
	if found > nShards {
		lock.Unlock()
		return nil, fmt.Errorf("store: %s holds %d shard directories but its manifest says %d: refusing to open a mixed data directory", opts.Dir, found, nShards)
	}
	d := &Durable{opts: opts, lock: lock, done: make(chan struct{})}
	var m *metrics
	if opts.Metrics != nil {
		m = newMetrics(opts.Metrics)
	}
	replayStart := time.Now()
	// Open reads before it writes: every shard's segments are walked and its
	// log decoded with nothing written, and only once every shard has passed
	// is anything created, cut or synced — so a directory refused in any
	// shard is left as it was.  Shards touch disjoint directories, so both
	// passes parallelize: cold starts are bounded by the largest shard, not
	// the sum.
	d.shards = make([]*dshard, nShards)
	err = eachShard(nShards, func(i int) (err error) {
		d.shards[i], err = loadShard(opts, i, m)
		return err
	})
	if err == nil && format == "" {
		// A new directory is marked v5 before its first shard directory is
		// created.
		err = writeManifest(opts.Dir, nShards, manifestFormat, opts.Fsync)
	}
	if err == nil {
		err = eachShard(nShards, func(i int) error { return d.shards[i].ready(opts) })
	}
	if err == nil && opts.Fsync {
		// Make freshly-created shard directories durable before the first
		// append is acknowledged.
		err = syncDir(opts.Dir)
	}
	if err != nil {
		d.closeShards()
		lock.Unlock()
		return nil, err
	}
	d.replayTime = time.Since(replayStart)
	if opts.Metrics != nil {
		d.registerCollectors(opts.Metrics)
	}
	if opts.CompactInterval > 0 {
		d.wg.Add(1)
		go d.compactLoop()
	}
	return d, nil
}

// manifestName is the file in the data directory root recording the
// shard count, written before any shard directory is created.
const manifestName = "SHARDS"

// manifestFormat follows the shard count in the manifest of a directory
// that holds v5 files and no others.  An older binary fails to parse the
// line and refuses the directory at once — before it reaches a v5 log,
// which it would take for a torn log of its own format and truncate.
const manifestFormat = "v5"

// formatTooOld is the refusal of dir, which an older version wrote, and
// why.
func formatTooOld(dir, why string) error {
	return fmt.Errorf("%w: %s %s", ErrFormatTooOld, dir, why)
}

// readManifest returns the shard count recorded in dir — 0 when no
// manifest exists yet — and the format marker after it: manifestFormat or
// none.  An older version's marker is refused with ErrFormatTooOld, any
// other as corrupt: a directory of a format newer than this version's.
func readManifest(dir string) (n int, format string, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, "", nil
		}
		return 0, "", err
	}
	fields := strings.Fields(string(data))
	if len(fields) == 2 {
		switch fields[1] {
		case manifestFormat:
			format, fields = fields[1], fields[:1]
		case "v3", "v4", "v5-converting":
			// An older version's: v3, v4, or the mark of its conversion
			// to v5 under way.
			return 0, "", formatTooOld(dir, "has a manifest marked "+fields[1])
		}
	}
	if len(fields) == 1 {
		n, err = strconv.Atoi(fields[0])
	}
	if len(fields) != 1 || err != nil || n <= 0 {
		return 0, "", fmt.Errorf("store: corrupt shard manifest in %s: %q", dir, data)
	}
	return n, format, nil
}

// holdsData reports whether any of dir's first n shard directories holds
// a segment or a log with anything in it.
func holdsData(dir string, n int) (bool, error) {
	for i := 0; i < n; i++ {
		entries, err := os.ReadDir(filepath.Join(dir, shardDirName(i)))
		if err != nil {
			return false, err
		}
		for _, e := range entries {
			_, seg := parseSegmentName(e.Name())
			if !seg && e.Name() != walName {
				continue
			}
			if info, err := e.Info(); err != nil {
				return false, err
			} else if info.Size() > 0 {
				return true, nil
			}
		}
	}
	return false, nil
}

// writeManifest atomically records the shard count and the format marker
// in dir, fsynced before the rename so a power loss cannot leave a
// renamed-but-empty manifest that would make every later open fail; sync
// makes the rename itself durable.
func writeManifest(dir string, n int, format string, sync bool) error {
	if err := writeFileAtomic(filepath.Join(dir, manifestName), []byte(strconv.Itoa(n)+" "+format+"\n")); err != nil {
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// existingShards counts the shard directories already present in dir,
// failing loudly unless the set is exactly shard-0000..shard-(n-1):
// records are placed by hash % n, so opening a directory with a gap
// (say, a partial restore that lost one shard) would silently drop the
// shards above the gap and re-place new records under a smaller
// modulus.
func existingShards(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var idx []int
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			if i, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-")); err == nil {
				idx = append(idx, i)
			}
		}
	}
	sort.Ints(idx)
	for i, v := range idx {
		if v != i {
			return 0, fmt.Errorf("store: %s is missing shard directory shard-%04d (found shard-%04d): refusing to open a partial data directory", dir, i, v)
		}
	}
	return len(idx), nil
}

// shardDirName renders the canonical directory name for shard i.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// eachShard runs fn for shards 0..n-1 in parallel and returns the first
// error by shard number.
func eachShard(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadShard is the read half of opening shard i: it walks its segments
// and decodes its log, writing nothing — a missing shard directory or log
// is ready's to create.  It fails with ErrFormatTooOld where a segment or
// the log holds a run of whole words.
func loadShard(opts Options, i int, m *metrics) (*dshard, error) {
	dir := filepath.Join(opts.Dir, shardDirName(i))
	segs, tmps, err := listSegments(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	nextSeq := uint64(1)
	for si := range segs {
		// Walking the data area verifies every checksum and decodes every
		// record, so a corrupt segment fails Open loudly, not a later read.
		idx, err := openSegment(segs[si].path)
		if err != nil {
			return nil, err
		}
		segs[si].idx = idx
		if segs[si].seq >= nextSeq {
			nextSeq = segs[si].seq + 1
		}
	}
	w, err := loadWAL(filepath.Join(dir, walName), opts.Fsync, m)
	if err != nil {
		return nil, err
	}
	return &dshard{id: i, dir: dir, wal: w, segs: segs, tmps: tmps, nextSeq: nextSeq, flushThreshold: opts.FlushThreshold, m: m}, nil
}

// ready is the write half of opening a shard, run once every shard has
// loaded: it creates the shard's directory and log where they are missing,
// removes what a crash mid-flush left, cuts the log's torn tail, syncs
// under Fsync and starts the group committer.
func (sh *dshard) ready(opts Options) error {
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return err
	}
	for _, tmp := range sh.tmps {
		os.Remove(tmp)
	}
	sh.tmps = nil
	if err := sh.wal.ready(); err != nil {
		return err
	}
	if opts.Fsync {
		// Machine-crash durability needs the wal.log (and shard directory)
		// directory entries on disk too, not just the record bytes.
		if err := sh.wal.Sync(); err != nil {
			return err
		}
		if err := syncDir(sh.dir); err != nil {
			return err
		}
		sh.gc = newGroupCommit(sh, opts.FsyncWindow)
	}
	return nil
}

// walName is the log's file name within a shard directory.
const walName = "wal.log"

// FNV-1a 64-bit constants, inlined so the per-append hash is
// allocation-free.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// userShard places a user by hash(userID) % shards.
func userShard(id bitvec.UserID, shards int) int {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return int(h % uint64(shards))
}

// shardOf places a record by its user id.
func (d *Durable) shardOf(p sketch.Published) *dshard {
	return d.shards[userShard(p.ID, len(d.shards))]
}

// Append durably records one published sketch: the record is framed,
// checksummed and written to its shard's WAL before Append returns.  In
// fsync mode the append parks on the shard's group-commit window and
// returns only after the window's shared fsync — acknowledged still means
// durable.  A WAL past the flush threshold is rolled into a segment inline.
func (d *Durable) Append(p sketch.Published) error {
	sh := d.shardOf(p)
	if sh.gc != nil {
		return sh.appendGroup([]sketch.Published{p})
	}
	// No commit window to join: the log's own one-record group keeps the
	// lone-writer path allocation-free.
	one := [1]sketch.Published{p}
	if err := checkRecords(one[:]); err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if err := sh.wal.Append(p); err != nil {
		return err
	}
	sh.maybeRollLocked()
	return nil
}

// appendGroup lands one shard's slice of an AppendBatch: through the
// commit window in fsync mode (one park and one shared fsync for the
// whole group), or directly into the WAL otherwise.  All-or-nothing per
// group, like wal.AppendBatch itself.
func (sh *dshard) appendGroup(ps []sketch.Published) error {
	if err := checkRecords(ps); err != nil {
		return err
	}
	if sh.gc != nil {
		return sh.gc.submit(ps)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if err := sh.wal.AppendBatch(ps); err != nil {
		return err
	}
	sh.maybeRollLocked()
	return nil
}

// AppendBatch implements BatchAppender: it partitions ps by shard and
// lands each shard's records as ONE commit-window entry, so a client
// batch costs roughly one fsync — and one scheduler park — per touched
// shard instead of one per record.  Durability on success matches
// Append: when a record's index is absent from failed, it survives a
// crash.  A batch whose records all fall in one shard — a lone record's
// among them — is appended on the caller's goroutine, as it stands.
//
// Atomicity is per shard, not per call: each shard group is
// all-or-nothing (a failed write truncates the whole group off that
// shard's log), but other shards' groups may already be durable and are
// NOT undone — fsynced records cannot be taken back without breaking
// replay.  failed reports exactly the records that did not become
// durable, in ascending input order, so the caller lands the others and
// withholds precisely those.
func (d *Durable) AppendBatch(ps []sketch.Published) (failed []int, err error) {
	if len(ps) == 0 {
		return nil, nil
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return seqIndices(len(ps)), ErrClosed
	}
	if s, ok := d.oneShard(ps); ok {
		if err := d.shards[s].appendGroup(ps); err != nil {
			return seqIndices(len(ps)), err
		}
		return nil, nil
	}
	groups := make([][]sketch.Published, len(d.shards))
	idxs := make([][]int, len(d.shards))
	for i, p := range ps {
		s := userShard(p.ID, len(d.shards))
		groups[s] = append(groups[s], p)
		idxs[s] = append(idxs[s], i)
	}
	errs := make([]error, len(d.shards))
	var wg sync.WaitGroup
	for s := range groups {
		if len(groups[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = d.shards[s].appendGroup(groups[s])
		}(s)
	}
	wg.Wait()
	errAt := -1
	for s, serr := range errs {
		if serr == nil {
			continue
		}
		failed = append(failed, idxs[s]...)
		if errAt < 0 || idxs[s][0] < errAt {
			errAt, err = idxs[s][0], serr
		}
	}
	sort.Ints(failed)
	return failed, err
}

// oneShard returns the shard of ps's records and true if they all fall in
// one.
func (d *Durable) oneShard(ps []sketch.Published) (int, bool) {
	s := userShard(ps[0].ID, len(d.shards))
	for _, p := range ps[1:] {
		if userShard(p.ID, len(d.shards)) != s {
			return 0, false
		}
	}
	return s, true
}

// seqIndices returns [0, 1, ..., n-1].
func seqIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// maybeRollLocked rolls the WAL into a segment once it crosses the flush
// threshold, backing off after a failed roll.  The shard lock must be
// held.  A failed roll is a maintenance problem, not an append failure:
// the records are already durable in the WAL, and surfacing the error to
// the appender would make the engine NACK and withhold records the log
// would resurrect on replay.  Count the failure, log the transition into
// the failing state (RollFailing reports it until a roll succeeds), back
// off until the WAL grows by another threshold, and let Flush/Close
// surface persistent errors.
func (sh *dshard) maybeRollLocked() {
	if sh.wal.size >= sh.flushThreshold &&
		(sh.rollFailedAt == 0 || sh.wal.size >= sh.rollFailedAt+sh.flushThreshold) {
		if err := sh.rollLocked(); err != nil {
			if sh.m != nil {
				sh.m.rollFailures.Inc()
			}
			if sh.rollFailedAt == 0 {
				log.Printf("store: shard %d wal roll failed (records stay in the wal; will retry): %v", sh.id, err)
			}
			sh.rollFailedAt = sh.wal.size
		} else {
			sh.rollFailedAt = 0
		}
	}
}

// rollLocked flushes the shard's WAL into a fresh segment and truncates
// the log.  The records are the log's own — decoded from the file's
// acknowledged prefix unless a read since the last append already did —
// so a NACKed window is never rolled.  The shard lock must be held.
// Crash safety: the segment is durable (fsync + rename + dir sync) before
// the WAL is truncated, so a crash in between leaves the records present
// twice and deduplication drops the copy.
func (sh *dshard) rollLocked() error {
	if sh.wal.records == 0 {
		return nil
	}
	runs, err := sh.wal.runs()
	if err != nil {
		return fmt.Errorf("store: shard %d roll: %w", sh.id, err)
	}
	image, idx := encodeSegment(runs)
	meta, err := writeSegment(sh.dir, sh.nextSeq, image, idx)
	if err != nil {
		return fmt.Errorf("store: shard %d roll: %w", sh.id, err)
	}
	sh.nextSeq++
	sh.segs = append(sh.segs, meta)
	if err := sh.wal.Truncate(); err != nil {
		return fmt.Errorf("store: shard %d truncating rolled wal: %w", sh.id, err)
	}
	if sh.m != nil {
		sh.m.rolls.Inc()
	}
	return nil
}

// Lookup returns the newest record for one (user, subset) pair — of the
// shorter length where the newest file holding one holds two: a binary
// search of the log's runs, then each segment newest-first — the
// in-memory run directory and sparse index skip a segment without the
// subset or below the id and turn the rest into one-block reads — instead
// of materialising the shard.  The log is decoded at most once between appends, so lookups of a
// quiet store stay logarithmic.  A segment compacted away mid-lookup
// triggers a retry against the fresh segment list.
func (d *Durable) Lookup(id bitvec.UserID, subset string) (sketch.Published, bool, error) {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return sketch.Published{}, false, ErrClosed
	}
	sh := d.shards[userShard(id, len(d.shards))]
	for attempt := 0; ; attempt++ {
		sh.mu.Lock()
		// Newest wins: the WAL is newer than any segment, and its runs are
		// already newest-wins within it.
		runs, err := sh.wal.runs()
		if err != nil {
			sh.mu.Unlock()
			return sketch.Published{}, false, err
		}
		for _, r := range runsOf(runs, subset) {
			if i, ok := r.IDs.Find(id); ok {
				sh.mu.Unlock()
				return r.Record(i), true, nil
			}
		}
		segs := append([]segmentMeta(nil), sh.segs...)
		sh.mu.Unlock()
		// Segments newest-first: a roll always outranks prior segments,
		// and a compaction's merged output is itself newest-wins, so the
		// first hit is the newest record.
		p, ok, err := lookupSegments(segs, sh.m, id, subset)
		if err != nil && os.IsNotExist(err) && attempt < 3 {
			// Compacted away between the snapshot and the read; the fresh
			// segment list has the survivor.
			continue
		}
		return p, ok, err
	}
}

// lookupSegments probes segs newest-first.
func lookupSegments(segs []segmentMeta, m *metrics, id bitvec.UserID, tag string) (sketch.Published, bool, error) {
	for i := len(segs) - 1; i >= 0; i-- {
		p, ok, err := lookupSegment(segs[i], m, id, tag)
		if err != nil || ok {
			return p, ok, err
		}
	}
	return sketch.Published{}, false, nil
}

// Flush implements Store: every shard's WAL is fsynced, and WALs past the
// flush threshold are rolled into segments.  Every shard is attempted
// even after a failure — Flush is the durability half of graceful
// shutdown, and one shard's bad disk must not leave the healthy shards
// unsynced — with the first error reported.
func (d *Durable) Flush() error {
	var first error
	for _, sh := range d.shards {
		sh.mu.Lock()
		err := sh.wal.Sync()
		if err == nil && sh.wal.size >= d.opts.FlushThreshold {
			err = sh.rollLocked()
			if err == nil {
				sh.rollFailedAt = 0
			}
		}
		sh.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RollFailing returns how many shards are in the failing-roll state: their
// last inline WAL roll failed and none has succeeded since.  Such a shard
// still acknowledges appends — the WAL holds them — but its log grows
// without bound (and every read of it decodes all of it) until the segment
// directory is writable again, so daemons report it as degraded health.
func (d *Durable) RollFailing() int {
	n := 0
	for _, sh := range d.shards {
		sh.mu.Lock()
		if sh.rollFailedAt != 0 {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// CompactNow merges the segments of every shard holding at least min of
// them; min is clamped to 2, since merging fewer than two segments is
// never productive (a lone segment is already deduplicated — rolls and
// compactions always write normalized runs).  It is the synchronous
// form of the background loop, for tests and operators.  The run is
// registered with the store's waitgroup so Close waits for an in-flight
// merge instead of releasing the directory lock while segment files are
// still being written and deleted.
func (d *Durable) CompactNow(min int) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.wg.Add(1)
	d.mu.Unlock()
	defer d.wg.Done()
	for _, sh := range d.shards {
		if err := sh.compact(min); err != nil {
			return err
		}
	}
	return nil
}

// compact merges the shard's current segments into one when it has at
// least min of them, deduplicating by (user, subset, length) with the
// newest record winning.  The WAL is untouched: it is always newer than any
// segment, so queries and iteration still resolve correctly.
//
// The merge itself runs without the shard lock so appends are never
// stalled behind multi-MiB reads and fsyncs: segments are immutable,
// rolls only append to sh.segs, and the compacting flag keeps a second
// compaction off the shard, so the snapshot taken under the lock stays
// valid for the whole merge.  Segments rolled meanwhile carry higher
// sequence numbers than the merged one, so the rebuilt list (and a
// reopened directory, which sorts by sequence) keeps oldest-first order.
func (sh *dshard) compact(min int) error {
	if min < 2 {
		min = 2
	}
	sh.mu.Lock()
	if sh.closed || sh.compacting || len(sh.segs) < min {
		sh.mu.Unlock()
		return nil
	}
	sh.compacting = true
	snap := append([]segmentMeta(nil), sh.segs...)
	seq := sh.nextSeq
	sh.nextSeq++
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		sh.compacting = false
		sh.mu.Unlock()
	}()

	start := now(sh.m)
	srcs, err := openSources(snap)
	if err != nil {
		return fmt.Errorf("store: shard %d compact: %w", sh.id, err)
	}
	defer closeSources(srcs)
	// Segments are individually sorted and deduplicated, so the merge is
	// a k-way pass per subset, the newest (highest-seq) source winning.
	// The merged image is about the size of what it merges, less whatever
	// they repeat.
	var size int64
	for _, seg := range snap {
		size += seg.bytes
	}
	w := newSegWriter(int(size))
	if err := mergeSources(srcs, func(r run) error { w.add(r); return nil }); err != nil {
		return fmt.Errorf("store: shard %d compact: %w", sh.id, err)
	}
	image, idx := w.finish()
	meta, err := writeSegment(sh.dir, seq, image, idx)
	if err != nil {
		return fmt.Errorf("store: shard %d compact: %w", sh.id, err)
	}
	if sh.m != nil {
		sh.m.compactions.Inc()
		sh.m.compactLatency.ObserveSince(start)
	}
	sh.mu.Lock()
	sh.segs = append([]segmentMeta{meta}, sh.segs[len(snap):]...)
	sh.mu.Unlock()
	for _, seg := range snap {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("store: shard %d removing compacted segment: %w", sh.id, err)
		}
	}
	return nil
}

// compactLoop is the background compaction goroutine.
func (d *Durable) compactLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.opts.CompactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-ticker.C:
			// Best effort: an IO error here will resurface on the next
			// Append/Flush against the same shard.
			_ = d.CompactNow(d.opts.CompactThreshold)
		}
	}
}

// Close implements Store: stops compaction, flushes every WAL and closes
// the log files.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	// Fence appends first: once every shard is marked closed, the Flush
	// below covers every record any Append ever acknowledged.  Draining
	// the group-commit pipelines after the fence commits every window an
	// in-flight Append already joined — accepted work resolves, it is
	// never abandoned — and happens before Flush so those records are in
	// its durability net too.
	for _, sh := range d.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
		if sh.gc != nil {
			sh.gc.close()
		}
	}
	close(d.done)
	d.wg.Wait()
	err := d.Flush()
	if cerr := d.closeShards(); err == nil {
		err = cerr
	}
	if uerr := d.lock.Unlock(); err == nil {
		err = uerr
	}
	return err
}

func (d *Durable) closeShards() error {
	var err error
	for _, sh := range d.shards {
		if sh == nil {
			continue // a shard that failed a parallel open
		}
		if sh.gc != nil {
			// Idempotent: Close already drained it; the failed-open path
			// has not, and must not leak the committer goroutine.
			sh.gc.close()
		}
		sh.mu.Lock()
		if cerr := sh.wal.Close(); err == nil {
			err = cerr
		}
		sh.mu.Unlock()
	}
	return err
}

// Stats implements Store.
func (d *Durable) Stats() Stats {
	st := Stats{Dir: d.opts.Dir}
	for _, sh := range d.shards {
		sh.mu.Lock()
		s := ShardStats{
			Shard:      sh.id,
			WALBytes:   sh.wal.size,
			WALRecords: sh.wal.records,
			Segments:   len(sh.segs),
		}
		for _, seg := range sh.segs {
			s.SegmentBytes += seg.bytes
			s.SegmentRecords += seg.idx.records()
		}
		sh.mu.Unlock()
		st.Shards = append(st.Shards, s)
		st.Records += s.WALRecords + s.SegmentRecords
	}
	// st.Shards is in index order by construction: Open builds d.shards
	// strictly as shard 0..n-1.
	return st
}
