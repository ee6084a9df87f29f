package store

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/sketch"
)

// Group commit: with Options.Fsync set, every production WAL's trick for
// durable ingest at ingest-pipeline speeds.  Concurrent Appends to a shard
// park on a commit window; a single committer goroutine (the leader)
// drains the window, writes its frames in one write(2), pays ONE
// fsync for the whole cohort and wakes everyone with the shared outcome.
// Acknowledged still means durable — no Append returns before its record's
// fsync — but the fsync cost is amortized over the window, so durable
// throughput scales with the number of concurrent writers instead of being
// pinned at one fsync per record.
//
// A window closes at the earliest of:
//
//   - cohort completion: no Append is in flight (entered the store but not
//     yet queued).  This is the common close: a lone writer commits
//     immediately with no added latency, and N parked writers commit as one
//     batch the moment the previous commit's fsync returns — the window IS
//     the in-flight commit, à la LevelDB's writer queue.
//   - the size cap (commitBytes): bounds one write's memory and the blast
//     radius of a torn batch.
//   - the window deadline (Options.FsyncWindow, measured from the first
//     queued record): bounds how long a descheduled straggler can hold the
//     cohort's latency hostage.
//
// Failure keeps the NACK invariants: a failed write or fsync rolls the
// WHOLE window off the log (wal.appendWindow truncates to the pre-window
// size) and every parked appender returns the error, so the engine lands
// none of those records — it probes a write, appends it and only then
// lands it — and nothing non-durable is ever queryable or can resurrect on
// replay.
type groupCommit struct {
	sh     *dshard
	window time.Duration

	// entering counts Appends between store entry and enqueue — the
	// stragglers the committer gives a beat to join the open window.
	entering atomic.Int32

	mu    sync.Mutex
	queue []commitWaiter
	bytes int
	// windowStart is when the oldest queued record arrived; the window
	// deadline is measured from it.
	windowStart time.Time
	closed      bool

	// arrived is poked (non-blocking, cap 1) on every enqueue so the
	// committer re-evaluates its close conditions event-driven, never by
	// polling.
	arrived chan struct{}
	closing chan struct{}
	wg      sync.WaitGroup

	// groups is the committer-owned list of the window's record groups —
	// slice headers, one per waiter — reused across windows.
	groups [][]sketch.Published
}

// commitWaiter is one parked appender: its records — one for a plain
// Append, a whole per-shard group for an AppendBatch — and the channel
// the committer delivers the batch outcome on.  A multi-record waiter
// costs one park and one wake regardless of its size, which is what
// lets batched ingest amortize the scheduler alongside the fsync.
type commitWaiter struct {
	ps   []sketch.Published
	errc chan error
}

// commitBytes caps one commit window's framed bytes — the size of the
// single write(2) a full window becomes; a full window commits immediately.
const commitBytes = 1 << 20

func newGroupCommit(sh *dshard, window time.Duration) *groupCommit {
	gc := &groupCommit{
		sh:      sh,
		window:  window,
		arrived: make(chan struct{}, 1),
		closing: make(chan struct{}),
	}
	gc.wg.Add(1)
	go gc.run()
	return gc
}

// submit parks the caller on the shard's open commit window and returns
// the batch outcome: nil only after every submitted record's write — and
// in fsync mode its fsync — succeeded.  ps joins the window as one
// all-or-nothing group.
func (gc *groupCommit) submit(ps []sketch.Published) error {
	frameBytes := windowBytes(ps)
	gc.entering.Add(1)
	w := commitWaiter{ps: ps, errc: make(chan error, 1)}
	gc.mu.Lock()
	if gc.closed {
		gc.mu.Unlock()
		gc.entering.Add(-1)
		return ErrClosed
	}
	if len(gc.queue) == 0 {
		gc.windowStart = time.Now()
	}
	gc.queue = append(gc.queue, w)
	gc.bytes += frameBytes
	gc.mu.Unlock()
	// Decrement before poking: the committer woken by this poke must see
	// this record queued, not counted as a straggler it should wait for.
	gc.entering.Add(-1)
	poke(gc.arrived)
	return <-w.errc
}

// poke delivers a non-blocking wakeup on a capacity-1 channel.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// run is the committer: it sleeps until a window opens, waits for the
// cohort to complete (bounded by the window deadline and the size cap)
// and commits the batch.  On close it drains and commits everything still
// queued — in-flight Appends resolve, they are never abandoned.
func (gc *groupCommit) run() {
	defer gc.wg.Done()
	for {
		gc.mu.Lock()
		n, bytes, closed, start := len(gc.queue), gc.bytes, gc.closed, gc.windowStart
		gc.mu.Unlock()
		if n == 0 {
			if closed {
				return
			}
			select {
			case <-gc.arrived:
			case <-gc.closing:
			}
			continue
		}
		if !closed && bytes < commitBytes && gc.entering.Load() > 0 {
			// Stragglers are mid-Append; give them until the window
			// deadline to join, re-evaluating on every enqueue.
			if wait := gc.window - time.Since(start); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-gc.arrived:
				case <-t.C:
				case <-gc.closing:
				}
				t.Stop()
				continue
			}
		}
		gc.commit()
	}
}

// commit drains the open window and appends it to the WAL in one write,
// rolling the log into a segment when it crossed the flush threshold, then
// wakes the cohort with the shared outcome.
func (gc *groupCommit) commit() {
	gc.mu.Lock()
	batch := gc.queue
	gc.queue = nil
	gc.bytes = 0
	gc.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	groups, records := gc.groups[:0], 0
	for _, w := range batch {
		groups = append(groups, w.ps)
		records += len(w.ps)
	}
	sh := gc.sh
	start := now(sh.m)
	sh.mu.Lock()
	// No sh.closed check: Close drains the committer before closing the
	// log files, and a queued record belongs to an Append that was
	// accepted before the close fence — it must resolve, not leak.
	err := sh.wal.appendWindow(groups)
	if err == nil {
		if sh.m != nil {
			sh.m.commitLatency.ObserveSince(start)
			sh.m.commitRecords.Observe(time.Duration(records) * time.Second)
			sh.m.commits.Inc()
		}
		sh.maybeRollLocked()
	}
	sh.mu.Unlock()
	clear(groups) // the waiters' slices are theirs again
	gc.groups = groups
	for _, w := range batch {
		w.errc <- err
	}
	// Yield so the writers just woken re-enter Append and join the next
	// window before it is drained.  Without this, on a loaded scheduler the
	// committer can loop around and commit a 1-record straggler batch
	// between every full cohort, doubling the fsync count.
	runtime.Gosched()
}

// close fences new submissions, lets the committer drain every queued
// record and waits for it to exit.
func (gc *groupCommit) close() {
	gc.mu.Lock()
	already := gc.closed
	gc.closed = true
	gc.mu.Unlock()
	if !already {
		close(gc.closing)
	}
	gc.wg.Wait()
}
