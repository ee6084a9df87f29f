package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/gateway"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
	"sketchprivacy/internal/wire"
)

// The seams the harness records spans at.  They are the system's public
// extension points, so the traced run needs no change to the program:
// spans inside the packages are a later issue.
const (
	seamOp      = "client.op"       // one closed-loop operation
	seamHTTP    = "gateway.http"    // S1: Handler().ServeHTTP
	seamBackend = "cluster.backend" // S2: gateway.Backend calls
	seamWire    = "wire.exchange"   // S3: one request→reply on a node connection
	seamStore   = "store.append"    // S4: store.Store appends
)

// span is one timed call at a seam.  Times are nanoseconds since the
// tracer's origin; Parent indexes the span that caused this one (-1 for an
// op) and Op is the closed-loop operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	// Node is the fleet node the span ran against, -1 above the fan-out.
	Node int8 `json:"node"`
	// MsgType is the wire frame type that opened an S3 exchange.
	MsgType byte `json:"msg_type,omitempty"`
	// BytesOut/BytesIn are an S3 exchange's bytes, or an S1 call's
	// request and response body sizes.
	BytesOut int64 `json:"bytes_out,omitempty"`
	BytesIn  int64 `json:"bytes_in,omitempty"`
	// Entries is the number of fraction and histogram entries of the
	// compiled plan an S2 Execute carried.
	Entries int32 `json:"entries,omitempty"`
}

// tracer collects spans in memory.  The benchmark has one closed-loop
// client, so "the span that caused this one" is simply the innermost open
// span of the layer above, held in cur*; no context needs to cross the
// program's own call chain.
type tracer struct {
	origin time.Time
	// on gates recording: a traced run records alternate rounds, so its
	// unrecorded rounds measure the same wrapped code path without the
	// bookkeeping (client.trace_overhead_pct).
	on atomic.Bool

	curOp      atomic.Int32
	curHTTP    atomic.Int32
	curBackend atomic.Int32

	mu    sync.Mutex
	spans []span
	conns map[*tracedConn]struct{}
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), conns: make(map[*tracedConn]struct{})}
	t.curOp.Store(-1)
	t.curHTTP.Store(-1)
	t.curBackend.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add appends a finished span and returns its index.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// begin opens a span whose index children need before it ends.
func (t *tracer) begin(name, detail string, parent int32) int32 {
	return t.add(span{Name: name, Detail: detail, Start: t.now(), Parent: parent, Op: t.curOp.Load(), Node: -1})
}

// end closes a span opened by begin, applying fill to set its counters.
func (t *tracer) end(id int32, fill func(*span)) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if fill != nil {
		fill(&t.spans[id])
	}
}

// flushConns closes the exchange every idle connection still holds open.
// An exchange's end is only known when the next request starts or the
// harness asks, so the harness calls this after each recorded op.
func (t *tracer) flushConns() {
	t.mu.Lock()
	conns := make([]*tracedConn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		c.closeExchange()
		c.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far with every S4 span's parent
// resolved: a store append runs on a node while that node serves an
// exchange, so its parent is the tightest S3 exchange on the same node
// that contains it.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byOp := make(map[int32][]int32)
	for i, s := range spans {
		if s.Name == seamWire {
			byOp[s.Op] = append(byOp[s.Op], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != seamStore {
			continue
		}
		best, bestLen := int32(-1), int64(0)
		for _, j := range byOp[s.Op] {
			x := spans[j]
			if x.Node == s.Node && x.Start <= s.Start && x.End >= s.End {
				if l := x.End - x.Start; best < 0 || l < bestLen {
					best, bestLen = j, l
				}
			}
		}
		s.Parent = best
	}
	return spans
}

// writeSpans writes the recorded spans as one JSON document.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedBackend is the S2 seam: gateway.RouterBackend with spans around
// the calls the HTTP layer makes.  Embedding the router backend forwards
// everything else — gateway.AdminBackend and gateway.FanoutCounterSource
// included — so the gateway sees the same optional surfaces traced or not.
type tracedBackend struct {
	gateway.RouterBackend
	t *tracer
}

// backendCall runs one S2 call under a span whose children are the S3
// exchanges it causes; fill, when non-nil, sets the span's counters.
func (t *tracer) backendCall(detail string, fill func(*span), call func()) {
	if !t.on.Load() {
		call()
		return
	}
	id := t.begin(seamBackend, detail, t.curHTTP.Load())
	t.curBackend.Store(id)
	call()
	t.curBackend.Store(-1)
	t.end(id, fill)
}

func (b tracedBackend) PublishAll(ps []sketch.Published) (err error) {
	b.t.backendCall("PublishAll", nil, func() { err = b.RouterBackend.PublishAll(ps) })
	return err
}

func (b tracedBackend) Source(d cluster.Domain) query.PartialSource {
	return tracedSource{PartialSource: b.RouterBackend.Source(d), t: b.t}
}

func (b tracedBackend) TotalRecords(d cluster.Domain) (uint64, error) {
	return b.Source(d).TotalRecords()
}

// tracedSource spans the two PartialSource calls the gateway's estimators
// make; Execute sees the compiled plan.
type tracedSource struct {
	query.PartialSource
	t *tracer
}

func (s tracedSource) Execute(p *query.Plan) (res *query.Results, err error) {
	entries := func(sp *span) { sp.Entries = int32(len(p.Fractions()) + len(p.Histograms())) }
	s.t.backendCall("Execute", entries, func() { res, err = s.PartialSource.Execute(p) })
	return res, err
}

func (s tracedSource) TotalRecords() (n uint64, err error) {
	s.t.backendCall("TotalRecords", nil, func() { n, err = s.PartialSource.TotalRecords() })
	return n, err
}

// tracedStore is the S4 seam: a node's durable store with spans around
// its appends.  Embedding *store.Durable forwards store.BatchAppender and
// store.BatchReader (and Lookup, CompactNow, Stats), so the engine's
// type assertions pick the same batched paths as on the bare store.
type tracedStore struct {
	*store.Durable
	t    *tracer
	node int8
}

func (s tracedStore) Append(p sketch.Published) error {
	if !s.t.on.Load() {
		return s.Durable.Append(p)
	}
	start := s.t.now()
	err := s.Durable.Append(p)
	s.t.add(span{Name: seamStore, Detail: "Append", Start: start, End: s.t.now(), Parent: -1, Op: s.t.curOp.Load(), Node: s.node})
	return err
}

func (s tracedStore) AppendBatch(ps []sketch.Published) ([]int, error) {
	if !s.t.on.Load() {
		return s.Durable.AppendBatch(ps)
	}
	start := s.t.now()
	failed, err := s.Durable.AppendBatch(ps)
	s.t.add(span{Name: seamStore, Detail: "AppendBatch", Start: start, End: s.t.now(), Parent: -1, Op: s.t.curOp.Load(), Node: s.node})
	return failed, err
}

// tracedConn is the S3 seam: a router→node connection that records each
// request→reply exchange.  The node protocol is strictly one frame out,
// one frame back per connection, so an exchange opens at the first Write
// after a Read and ends at the last Read before the next Write; the first
// byte written is the frame's type (wire.WriteFrame's header), which
// tells hello handshakes from requests.
type tracedConn struct {
	net.Conn
	t    *tracer
	node int8

	mu       sync.Mutex
	open     bool
	replied  bool
	start    int64
	lastRead int64
	out, in  int64
	msgType  byte
	parent   int32
	op       int32
}

func (t *tracer) wrapConn(c net.Conn, node int8) net.Conn {
	tc := &tracedConn{Conn: c, t: t, node: node}
	t.mu.Lock()
	t.conns[tc] = struct{}{}
	t.mu.Unlock()
	return tc
}

// closeExchange records the open exchange, if it got a reply.  c.mu held.
func (c *tracedConn) closeExchange() {
	if c.open && c.replied {
		c.t.add(span{Name: seamWire, Start: c.start, End: c.lastRead, Parent: c.parent, Op: c.op,
			Node: c.node, MsgType: c.msgType, BytesOut: c.out, BytesIn: c.in})
	}
	c.open = false
}

func (c *tracedConn) Write(b []byte) (int, error) {
	if c.t.on.Load() && len(b) > 0 {
		c.mu.Lock()
		if !c.open || c.replied {
			c.closeExchange()
			parent := c.t.curBackend.Load()
			if parent < 0 {
				parent = c.t.curHTTP.Load()
			}
			c.open, c.replied = true, false
			c.start, c.out, c.in = c.t.now(), 0, 0
			c.msgType, c.parent, c.op = b[0], parent, c.t.curOp.Load()
		}
		c.out += int64(len(b))
		c.mu.Unlock()
	}
	return c.Conn.Write(b)
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.mu.Lock()
		if c.open {
			c.replied = true
			c.in += int64(n)
			c.lastRead = c.t.now()
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Close() error {
	c.mu.Lock()
	c.closeExchange()
	c.mu.Unlock()
	c.t.mu.Lock()
	delete(c.t.conns, c)
	c.t.mu.Unlock()
	return c.Conn.Close()
}

// isHandshake reports whether an S3 exchange is a connection's hello.
// Connections are dialed when the router's small idle pool runs dry, which
// depends on timing; the exact per-op counts therefore leave hellos out.
func isHandshake(s span) bool { return s.MsgType == wire.TypeHello }
