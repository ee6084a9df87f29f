package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// node is the router's view of one cluster member: a small pool of
// hello-handshaken connections plus the health state the ping loop and the
// request path both feed, and the hinted-handoff queue of publishes the
// member missed while it was down.
//
// The health state doubles as a per-node circuit breaker on the request
// path: a failed exchange marks the node dead immediately (it does not
// wait for the next ping sweep) and opens the breaker, requests against an
// open breaker fail fast instead of re-paying the dial-and-time-out cost,
// and once the backoff elapses the breaker is half-open — the next attempt
// (a ping probe or a request) either revives the node or re-opens it with
// a longer backoff.
type node struct {
	addr        string
	dialTimeout time.Duration
	reqTimeout  time.Duration
	backoffBase time.Duration
	backoffMax  time.Duration
	// dialFn establishes connections (tests inject faultnet dialers); nil
	// means plain TCP.
	dialFn func(addr string, timeout time.Duration) (net.Conn, error)
	// epochFn supplies the router's current ring epoch for the hello
	// handshake and pings; nil sends the bare forms.
	epochFn func() uint64
	// epochSeen reports each epoch a pong announces, so the router can
	// fast-forward past membership changes a previous router performed.
	epochSeen func(uint64)

	mu       sync.Mutex
	idle     []net.Conn
	alive    bool
	failures int
	trips    uint64 // alive→dead transitions: how often the breaker opened
	retryAt  time.Time
	lastOK   time.Time
	lastErr  string
	sketches uint64
	epoch    uint64 // highest epoch the node reported in a pong
	closed   bool
	// hints queues records this member missed while down; replayed (and
	// drained) by the router's sweep when the member returns.  While any
	// hint is pending — queued, or taken by a replay whose push has not
	// been acknowledged yet — the member is excluded from query fan-outs.
	hints     []sketch.Published
	replaying int
}

// isAlive reports whether the node is currently considered live
// (reachable — it may still be catching up on hints).
func (n *node) isAlive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// queryLive reports whether the node may serve query fan-outs: alive and
// holding every record it ever acknowledged or was hinted — a node mid
// hint-replay would undercount.
func (n *node) queryLive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive && len(n.hints) == 0 && n.replaying == 0
}

// addHint queues a record the node missed, refusing past the cap.
func (n *node) addHint(p sketch.Published, max int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.hints) >= max {
		return false
	}
	n.hints = append(n.hints, p)
	return true
}

// takeHints removes and returns up to max queued hints for a replay, which
// settleHints must end.
func (n *node) takeHints(max int) []sketch.Published {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.hints) == 0 {
		return nil
	}
	k := min(max, len(n.hints))
	out := make([]sketch.Published, k)
	copy(out, n.hints[:k])
	n.hints = append(n.hints[:0], n.hints[k:]...)
	if len(n.hints) == 0 {
		n.hints = nil
	}
	n.replaying++
	return out
}

// settleHints ends a replay: the node acknowledged the taken hints, or the
// push failed and failed goes back to the head of the queue.
func (n *node) settleHints(failed []sketch.Published) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replaying--
	if len(failed) > 0 {
		n.hints = append(failed, n.hints...)
	}
}

// probeDue reports whether a dead node's backoff has elapsed, so the ping
// loop should try to revive it.
func (n *node) probeDue(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive || !now.Before(n.retryAt)
}

// breakerState names the node's circuit-breaker state for operators:
// closed (healthy), open (dead, backoff pending — requests fail fast) or
// half-open (dead, backoff elapsed — the next attempt decides).
func (n *node) breakerState() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.alive:
		return "closed"
	case time.Now().Before(n.retryAt):
		return "open"
	default:
		return "half-open"
	}
}

// breakerTrips returns how often the breaker has opened.
func (n *node) breakerTrips() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trips
}

// breakerCheck fails a request fast while the breaker is open: the node
// failed recently and its backoff has not elapsed, so dialing again would
// only re-pay the timeout the last caller already paid.  Half-open lets
// the attempt through.  Probes driven by probeDue always pass (probeDue
// implies alive or elapsed backoff), so the ping loop is never locked out.
func (n *node) breakerCheck() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive || !time.Now().Before(n.retryAt) {
		return nil
	}
	return errNodeFailed{fmt.Errorf("cluster: node %s: circuit breaker open after %d failures (retry in %s): %s",
		n.addr, n.failures, time.Until(n.retryAt).Round(time.Millisecond), n.lastErr)}
}

// markOK records a successful exchange, reviving a dead node.
func (n *node) markOK() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = true
	n.failures = 0
	n.lastOK = time.Now()
	n.lastErr = ""
}

// markFailed records a failed exchange: the node is marked dead (tripping
// the breaker if it was alive) and its next probe is pushed out with
// exponential backoff.
func (n *node) markFailed(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive {
		n.trips++
	}
	n.alive = false
	n.failures++
	backoff := n.backoffBase << uint(min(n.failures-1, 10))
	if backoff > n.backoffMax {
		backoff = n.backoffMax
	}
	n.retryAt = time.Now().Add(backoff)
	n.lastErr = err.Error()
	for _, c := range n.idle {
		c.Close()
	}
	n.idle = n.idle[:0]
}

// dial opens a raw connection through the configured dialer.
func (n *node) dial() (net.Conn, error) {
	if n.dialFn != nil {
		return n.dialFn(n.addr, n.dialTimeout)
	}
	return net.DialTimeout("tcp", n.addr, n.dialTimeout)
}

// get returns a pooled connection or dials and handshakes a fresh one.
func (n *node) get() (c net.Conn, pooled bool, err error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, false, fmt.Errorf("cluster: node %s: router closed", n.addr)
	}
	if k := len(n.idle); k > 0 {
		c = n.idle[k-1]
		n.idle = n.idle[:k-1]
		n.mu.Unlock()
		return c, true, nil
	}
	n.mu.Unlock()
	c, err = n.dial()
	if err != nil {
		return nil, false, fmt.Errorf("cluster: node %s: %w", n.addr, err)
	}
	if err = c.SetDeadline(time.Now().Add(n.reqTimeout)); err == nil {
		if n.epochFn != nil {
			err = wire.ClientHandshakeEpoch(c, n.epochFn())
		} else {
			err = wire.ClientHandshake(c)
		}
	}
	if err == nil {
		err = c.SetDeadline(time.Time{})
	}
	if err != nil {
		c.Close()
		return nil, false, fmt.Errorf("cluster: node %s: %w", n.addr, err)
	}
	return c, false, nil
}

// put returns a healthy connection to the pool.
func (n *node) put(c net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || len(n.idle) >= 4 {
		c.Close()
		return
	}
	n.idle = append(n.idle, c)
}

// close shuts the pool down.
func (n *node) close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for _, c := range n.idle {
		c.Close()
	}
	n.idle = nil
}

// roundTrip is roundTripCtx under a background context: the exchange is
// bounded by the per-request timeout alone.
func (n *node) roundTrip(msgType byte, payload []byte) (byte, []byte, error) {
	return n.roundTripCtx(context.Background(), msgType, payload)
}

// roundTripCtx performs one request/response exchange bounded by ctx.  A
// failure on a pooled connection is hedged once on a fresh dial (the
// pooled conn may simply be stale after a node restart); a failure on a
// fresh connection marks the node dead.  Success feeds the health state,
// so a query can revive a node between pings.
//
// The exchange's I/O deadline is the context deadline when one is set
// (rebalance transfers run under a longer budget than queries) and
// now+reqTimeout otherwise; a context cancelled mid-exchange unblocks the
// I/O immediately via a past deadline.  Cancellation is the caller losing
// interest — a hedged fan-out whose recovery answered first — not
// evidence about the node, so it does NOT mark the node failed; a
// deadline expiry or transport error does.
func (n *node) roundTripCtx(ctx context.Context, msgType byte, payload []byte) (byte, []byte, error) {
	if err := n.breakerCheck(); err != nil {
		return 0, nil, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, fmt.Errorf("cluster: node %s: %w", n.addr, err)
		}
		c, pooled, err := n.get()
		if err != nil {
			n.markFailed(err)
			return 0, nil, err
		}
		deadline := time.Now().Add(n.reqTimeout)
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
		if err := c.SetDeadline(deadline); err != nil {
			c.Close()
			if pooled {
				continue
			}
			err = fmt.Errorf("cluster: node %s: arming deadline: %w", n.addr, err)
			n.markFailed(err)
			return 0, nil, err
		}
		// A cancelled ctx unblocks a parked read or write with a past
		// deadline.
		stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Now().Add(-time.Second)) })
		err = wire.WriteFrame(c, msgType, payload)
		var (
			replyType byte
			reply     []byte
		)
		if err == nil {
			replyType, reply, err = wire.ReadFrame(c)
		}
		if err == nil {
			// Pool the connection only if the callback never ran: one that
			// ran may still be arming its past deadline.
			if stop() && c.SetDeadline(time.Time{}) == nil {
				n.put(c)
			} else {
				c.Close()
			}
			n.markOK()
			return replyType, reply, nil
		}
		stop()
		c.Close()
		if ctxErr := ctx.Err(); errors.Is(ctxErr, context.Canceled) {
			// The caller gave up; the node may be perfectly healthy.
			return 0, nil, fmt.Errorf("cluster: node %s: %w", n.addr, ctxErr)
		}
		if pooled && ctx.Err() == nil {
			continue
		}
		err = fmt.Errorf("cluster: node %s: %w", n.addr, err)
		n.markFailed(err)
		return 0, nil, err
	}
}

// ping probes the node, announcing the router's ring epoch and recording
// the node's reported sketch count and observed epoch.
func (n *node) ping() error {
	var payload []byte
	if n.epochFn != nil {
		payload = wire.EncodePingEpoch(n.epochFn())
	}
	replyType, reply, err := n.roundTrip(wire.TypePing, payload)
	if err != nil {
		return err
	}
	if replyType != wire.TypePong {
		err := fmt.Errorf("cluster: node %s: ping answered with message type %d", n.addr, replyType)
		n.markFailed(err)
		return err
	}
	// The pong text is "ok version=V sketches=N epoch=E"; the counts feed
	// the router status report.
	for _, tok := range strings.Fields(string(reply)) {
		if rest, ok := strings.CutPrefix(tok, "sketches="); ok {
			if v, perr := strconv.ParseUint(rest, 10, 64); perr == nil {
				n.mu.Lock()
				n.sketches = v
				n.mu.Unlock()
			}
		}
		if rest, ok := strings.CutPrefix(tok, "epoch="); ok {
			if v, perr := strconv.ParseUint(rest, 10, 64); perr == nil {
				n.mu.Lock()
				n.epoch = v
				n.mu.Unlock()
				if n.epochSeen != nil {
					n.epochSeen(v)
				}
			}
		}
	}
	return nil
}
