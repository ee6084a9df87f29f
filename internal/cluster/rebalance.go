package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// migration is the in-flight state of one membership change.  While it is
// installed, publishes dual-write to the owners under both rings; queries
// keep running — exactly — over the current ring until the cutover.
type migration struct {
	next   *Ring
	verb   string // "join" or "drain"
	target string

	started time.Time
	scanned atomic.Uint64 // records examined across source streams
	moved   atomic.Uint64 // record copies pushed to new owners
	batches atomic.Uint64 // batch frames pushed
}

// progress renders one line of live migration state.
func (m *migration) progress() string {
	return fmt.Sprintf("active verb=%s target=%s scanned=%d moved=%d batches=%d elapsed=%s",
		m.verb, m.target, m.scanned.Load(), m.moved.Load(), m.batches.Load(),
		time.Since(m.started).Round(time.Millisecond))
}

// Join adds a node to the live cluster: it streams every (user, subset)
// sketch whose ownership the new ring assigns to new owners, then cuts the
// ring over atomically.  The sequence is
//
//  1. install the migration — publishes start dual-writing to the owners
//     under both rings, so records published mid-stream are already in
//     place at cutover;
//  2. stream: read every current member's records in batches, keep only
//     those this source is responsible for (first live owner under the
//     current ring — sources cover each other's records exactly once),
//     and push the ones whose new-ring owner set gained a node;
//  3. cut over: swap the ring, bump the epoch, drop the migration.  The
//     swap happens under the router's write lock, so every fan-out sees
//     either the old ring (all old owners still hold everything) or the
//     new ring (every moved record is acknowledged at its destination) —
//     answers are bit-identical to a single merged engine at every step.
//
// A failure anywhere rolls the migration back: the ring is untouched, the
// partially transferred records are redundant copies the ownership filters
// ignore, and a retried Join converges because transfers are idempotent.
func (r *Router) Join(addr string) error {
	if strings.TrimSpace(addr) == "" {
		return fmt.Errorf("cluster: join needs a node address")
	}
	r.adminMu.Lock()
	defer r.adminMu.Unlock()

	r.mu.RLock()
	ring := r.ring
	_, exists := r.nodes[addr]
	r.mu.RUnlock()
	if exists {
		return fmt.Errorf("cluster: %s is already a cluster member", addr)
	}
	newRing, err := NewRing(append(ring.Nodes(), addr), r.cfg.VNodes)
	if err != nil {
		return err
	}
	// The joining node must be reachable and speak our protocol before any
	// data moves toward it.
	n := r.newNode(addr)
	if err := n.ping(); err != nil {
		n.close()
		return fmt.Errorf("cluster: joining node %s is unreachable: %w", addr, err)
	}

	mig := &migration{next: newRing, verb: "join", target: addr, started: time.Now()}
	r.mu.Lock()
	r.nodes[addr] = n
	r.mig = mig
	r.mu.Unlock()

	if err := r.rebalance(ring, newRing, mig); err != nil {
		r.mu.Lock()
		delete(r.nodes, addr)
		r.mig = nil
		r.mu.Unlock()
		n.close()
		r.setLastRebalance(fmt.Sprintf("join %s FAILED after %s: %v", addr, time.Since(mig.started).Round(time.Millisecond), err))
		return fmt.Errorf("cluster: join %s: %w", addr, err)
	}

	r.cutover(newRing, mig, nil)
	return nil
}

// Drain moves a member's ownership onto the remaining nodes and retires it
// from the ring.  The mechanics mirror Join — install migration, stream
// (the drained member's records are sourced from it, or from its replicas
// if it just died), cut over — with the drained node removed from the
// membership at cutover.  Its on-disk data is untouched; wipe it before
// reusing the directory (see docs/OPERATIONS.md).
func (r *Router) Drain(addr string) error {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()

	r.mu.RLock()
	ring := r.ring
	member := slices.Contains(r.order, addr)
	r.mu.RUnlock()
	if !member {
		return fmt.Errorf("cluster: %s is not a cluster member", addr)
	}
	remaining := make([]string, 0, len(ring.Nodes())-1)
	for _, n := range ring.Nodes() {
		if n != addr {
			remaining = append(remaining, n)
		}
	}
	if len(remaining) == 0 {
		return fmt.Errorf("cluster: refusing to drain the last node")
	}
	if r.cfg.Replication > len(remaining) {
		return fmt.Errorf("cluster: draining %s would leave %d nodes, fewer than rf=%d", addr, len(remaining), r.cfg.Replication)
	}
	newRing, err := NewRing(remaining, r.cfg.VNodes)
	if err != nil {
		return err
	}

	mig := &migration{next: newRing, verb: "drain", target: addr, started: time.Now()}
	r.mu.Lock()
	r.mig = mig
	r.mu.Unlock()

	if err := r.rebalance(ring, newRing, mig); err != nil {
		r.mu.Lock()
		r.mig = nil
		r.mu.Unlock()
		r.setLastRebalance(fmt.Sprintf("drain %s FAILED after %s: %v", addr, time.Since(mig.started).Round(time.Millisecond), err))
		return fmt.Errorf("cluster: drain %s: %w", addr, err)
	}

	r.cutover(newRing, mig, func() *node {
		n := r.nodes[addr]
		delete(r.nodes, addr)
		return n
	})
	return nil
}

// cutover atomically installs the new ring, bumps the epoch and clears the
// migration; retire, when non-nil, removes a member handle under the same
// write lock.  Afterwards the new epoch is announced to every member so
// their stale-epoch guards arm immediately (best effort — the next fan-out
// or ping announces it too).
func (r *Router) cutover(newRing *Ring, mig *migration, retire func() *node) {
	var retired *node
	r.mu.Lock()
	r.ring = newRing
	r.order = newRing.Nodes()
	r.epoch.Add(1)
	r.mig = nil
	if retire != nil {
		retired = retire()
	}
	r.mu.Unlock()
	if retired != nil {
		retired.close()
	}
	r.setLastRebalance(fmt.Sprintf("%s %s ok in %s: scanned=%d moved=%d batches=%d",
		mig.verb, mig.target, time.Since(mig.started).Round(time.Millisecond),
		mig.scanned.Load(), mig.moved.Load(), mig.batches.Load()))
	r.sweep()
}

func (r *Router) setLastRebalance(s string) {
	r.mu.Lock()
	r.lastReb = s
	r.mu.Unlock()
}

// RebalanceStatus renders the membership-change state: the live migration
// when one is streaming, else the outcome of the last one.
func (r *Router) RebalanceStatus() string {
	r.mu.RLock()
	mig, epoch, last := r.mig, r.epoch.Load(), r.lastReb
	r.mu.RUnlock()
	if mig != nil {
		return fmt.Sprintf("rebalance %s epoch=%d\n", mig.progress(), epoch)
	}
	if last == "" {
		return fmt.Sprintf("rebalance idle epoch=%d (no membership change since startup)\n", epoch)
	}
	return fmt.Sprintf("rebalance idle epoch=%d (last: %s)\n", epoch, last)
}

// rebalance streams the records the old→new ring diff moves.  Every live
// member is read in batches; a record is handled by its first live owner
// under the old ring (so the sources partition the records, and records on
// a just-dead member are covered by their surviving replicas); the
// destinations are the record's new-ring owners that are not already
// old-ring owners.  Pushes are batched per destination and idempotent, so
// an interrupted rebalance re-run converges.
func (r *Router) rebalance(old, newRing *Ring, mig *migration) error {
	rf := r.cfg.Replication
	newRF := min(rf, len(newRing.Nodes()))

	// One live snapshot drives source responsibility for the whole stream;
	// a node dying mid-stream fails the rebalance loudly rather than
	// silently reassigning responsibility halfway through.
	sources := old.Nodes()
	live := make(map[string]bool, len(sources))
	liveCount := 0
	for _, addr := range sources {
		n, ok := r.handle(addr)
		if ok && n.queryLive() {
			live[addr] = true
			liveCount++
		}
	}
	if dead := len(sources) - liveCount; dead >= rf {
		return fmt.Errorf("cluster: %d of %d members down or restoring at rf=%d — acknowledged records may be unreachable, refusing to rebalance", dead, len(sources), rf)
	}

	pending := make(map[string][]sketch.Published, len(newRing.Nodes()))
	flush := func(dest string) error {
		records := pending[dest]
		if len(records) == 0 {
			return nil
		}
		n, ok := r.handle(dest)
		if !ok {
			return fmt.Errorf("cluster: transfer destination %s has no member handle", dest)
		}
		frames, err := r.pushTransfer(n, records)
		mig.batches.Add(uint64(frames))
		if err != nil {
			return err
		}
		pending[dest] = pending[dest][:0]
		return nil
	}

	for _, src := range sources {
		if !live[src] {
			continue
		}
		srcNode, ok := r.handle(src)
		if !ok {
			return fmt.Errorf("cluster: source %s has no member handle", src)
		}
		cursor := uint64(0)
		for {
			batch, err := r.snapshotRead(srcNode, cursor)
			if err != nil {
				return err
			}
			for _, p := range batch.Records {
				mig.scanned.Add(1)
				owner, ok := old.FirstLive(p.ID, live)
				if !ok || owner != src {
					continue // another live source is responsible
				}
				oldOwners := old.Owners(p.ID, rf)
				for _, dest := range newRing.Owners(p.ID, newRF) {
					if slices.Contains(oldOwners, dest) {
						continue
					}
					pending[dest] = append(pending[dest], p)
					mig.moved.Add(1)
					if len(pending[dest]) >= wire.MaxTransferBatch {
						if err := flush(dest); err != nil {
							return err
						}
					}
				}
			}
			if hook := r.cfg.OnTransferBatch; hook != nil {
				hook()
			}
			if batch.Done {
				break
			}
			if batch.Next == cursor && len(batch.Records) == 0 {
				return fmt.Errorf("cluster: snapshot stream from %s stalled at cursor %d", src, cursor)
			}
			cursor = batch.Next
		}
	}
	for dest := range pending {
		if err := flush(dest); err != nil {
			return err
		}
	}
	return nil
}

// snapshotRead fetches one batch of a member's records, at most
// wire.MaxTransferBatch of them, bounded by the bulk TransferTimeout (a full
// batch read can outlast a query exchange).
func (r *Router) snapshotRead(n *node, cursor uint64) (wire.SnapshotBatch, error) {
	req := wire.EncodeSnapshotRead(wire.SnapshotRead{Cursor: cursor, Max: wire.MaxTransferBatch})
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.TransferTimeout)
	defer cancel()
	replyType, reply, err := n.roundTripCtx(ctx, wire.TypeSnapshotRead, req)
	if err != nil {
		return wire.SnapshotBatch{}, err
	}
	switch replyType {
	case wire.TypeSnapshotBatch:
		batch, err := wire.DecodeSnapshotBatch(reply)
		if err != nil {
			return wire.SnapshotBatch{}, fmt.Errorf("cluster: node %s: %w", n.addr, err)
		}
		return batch, nil
	case wire.TypeError:
		return wire.SnapshotBatch{}, fmt.Errorf("cluster: node %s refused snapshot read: %s", n.addr, reply)
	default:
		return wire.SnapshotBatch{}, fmt.Errorf("cluster: node %s: unexpected snapshot reply type %d", n.addr, replyType)
	}
}
