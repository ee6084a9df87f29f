// Package server provides the TCP collection daemon and its client: users
// publish sketches over the wire protocol, analysts run conjunctive queries
// remotely.  The server holds only public objects (the sketch table), so it
// needs no more trust than a bulletin board — exactly the deployment the
// paper's no-trusted-party mode calls for.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/wire"
)

// Config parameterizes a Server's robustness guards.  The zero value gets
// defaults, so server.New keeps working unchanged.
type Config struct {
	// ReadIdleTimeout bounds how long a connection may sit silent between
	// frames (default 5m): a client that wedges mid-frame or goes away
	// without closing stops holding a handler goroutine and a socket
	// forever.  A fresh deadline is armed before every frame read, so a
	// chatty connection never times out.
	ReadIdleTimeout time.Duration
	// MaxInFlight bounds how many frames the server executes concurrently
	// across all connections (default 256).  Past it, requests are shed
	// with wire.OverloadError — a retryable refusal — instead of queueing
	// unboundedly; a misbehaving client cannot wedge the node for others.
	MaxInFlight int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.ReadIdleTimeout == 0 {
		c.ReadIdleTimeout = 5 * time.Minute
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	return c
}

// Server accepts publish and query frames over TCP and applies them to an
// engine.
type Server struct {
	eng *engine.Engine
	cfg Config

	// inflight is the frame-execution semaphore implementing MaxInFlight.
	inflight chan struct{}

	// Robustness counters, reported in stats.
	frames           atomic.Uint64 // frames served, all message types
	overloads        atomic.Uint64 // frames shed by the in-flight guard
	idleCloses       atomic.Uint64 // connections closed by the idle timeout
	checksumErrors   atomic.Uint64 // frames refused with a CRC mismatch
	deadlineAbandons atomic.Uint64 // plans abandoned mid-execution on budget expiry

	// epoch is the highest ring epoch this node has observed, learned from
	// hello handshakes, pings, ownership filters and transfer pushes.  A
	// plan query built for an older epoch is refused (wire.StaleEpochError)
	// so results computed under a superseded ring are never merged into an
	// estimate — the router retries under a fresh ring snapshot instead.
	epoch atomic.Uint64

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// New creates a server around an engine with default guards.
func New(eng *engine.Engine) *Server {
	return NewWithConfig(eng, Config{})
}

// NewWithConfig creates a server with explicit robustness guards.
func NewWithConfig(eng *engine.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		eng:      eng,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.  Serving happens on background goroutines
// until Close is called.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(ln), nil
}

// Serve starts accepting connections from an already-bound listener and
// returns its address.  Fault-injection tests pass a faultnet-wrapped
// listener through here; Listen delegates to it for the common case.
func (s *Server) Serve(ln net.Listener) string {
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the listener, closes every open connection and waits for
// the handler goroutines to finish.  Closing the connections (rather
// than waiting for clients to hang up) is what lets a daemon with idle
// clients still reach its final store flush on shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.listener
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// track registers a live connection, or refuses it when the server is
// already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handle serves one connection until it closes, a protocol error occurs,
// the idle timeout fires or the server shuts down.  Every frame passes
// the in-flight guard before executing: past MaxInFlight concurrently
// executing frames the request is shed with a retryable overload refusal,
// so a flood of expensive plans degrades into refusals instead of
// unbounded queueing.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	for {
		// Arm a fresh idle deadline before each frame read: a connection
		// that goes silent mid-frame or disappears without closing is
		// reaped instead of pinning a goroutine and a socket forever.
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadIdleTimeout)); err != nil {
			return
		}
		msgType, payload, err := wire.ReadFrame(conn)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.idleCloses.Add(1)
			}
			if errors.Is(err, wire.ErrFrameChecksum) {
				// The frame was read in full, so the stream is still
				// framed — but its bytes cannot be trusted.  Report the
				// corruption and hang up; the client redials.
				s.checksumErrors.Add(1)
				s.writeError(conn, err)
			}
			return
		}
		select {
		case s.inflight <- struct{}{}:
		default:
			s.overloads.Add(1)
			s.writeError(conn, wire.OverloadError(cap(s.inflight)))
			continue
		}
		keep := s.serveFrame(conn, msgType, payload)
		<-s.inflight
		if !keep {
			return
		}
	}
}

// serveFrame executes one frame, reporting whether the connection should
// stay open.
func (s *Server) serveFrame(conn net.Conn, msgType byte, payload []byte) bool {
	s.frames.Add(1)
	switch msgType {
	case wire.TypePublish:
		pub, err := wire.DecodePublished(payload)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		if err := s.eng.Ingest(pub); err != nil {
			s.writeError(conn, err)
			return true
		}
		_ = wire.WriteFrame(conn, wire.TypeAck, nil)
	case wire.TypePublishBatch:
		ps, err := wire.DecodePublishBatch(payload)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		// The batched ingest path: one commit-window entry per touched
		// store shard for the whole batch.  The single ack means every
		// record is durable; on error the client re-publishes the batch
		// through the idempotent path.
		if err := s.eng.IngestBatch(ps); err != nil {
			s.writeError(conn, err)
			return true
		}
		_ = wire.WriteFrame(conn, wire.TypeAck, nil)
	case wire.TypeQuery:
		q, err := wire.DecodeQuery(payload)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		est, err := s.eng.Conjunction(q.Subset, q.Value)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		res := wire.Result{Fraction: est.Fraction, Raw: est.Raw, Users: uint64(est.Users)}
		_ = wire.WriteFrame(conn, wire.TypeResult, wire.EncodeResult(res))
	case wire.TypeStats:
		// Unlike publish/query replies, a stats payload has no fixed
		// size bound, so a frame-too-large failure must still send
		// *something* or the client blocks forever awaiting a reply.
		if err := wire.WriteFrame(conn, wire.TypeStatsReply, wire.EncodeStats(s.stats())); err != nil {
			s.writeError(conn, err)
		}
	case wire.TypeHello:
		if err := wire.CheckHello(payload); err != nil {
			// Fail the handshake loudly and hang up: a mixed-version
			// peer's subsequent frames would decode as garbage, so the
			// refusal must end the connection, not just warn.
			s.writeError(conn, err)
			return false
		}
		if _, epoch, has, err := wire.ParseHello(payload); err == nil && has {
			s.observeEpoch(epoch)
		}
		_ = wire.WriteFrame(conn, wire.TypeHelloAck, wire.EncodeHello())
	case wire.TypePing:
		if epoch, has, err := wire.ParsePing(payload); err == nil && has {
			s.observeEpoch(epoch)
		}
		pong := fmt.Sprintf("ok version=%d sketches=%d epoch=%d",
			wire.ProtocolVersion, s.eng.Sketches(), s.epoch.Load())
		_ = wire.WriteFrame(conn, wire.TypePong, []byte(pong))
	case wire.TypePlanQuery:
		pq, err := wire.DecodePlanQuery(payload)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		res, err := s.plan(pq)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		_ = wire.WriteFrame(conn, wire.TypePlanResult, wire.EncodePlanResult(res))
	case wire.TypeSnapshotRead:
		req, err := wire.DecodeSnapshotRead(payload)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		// Clamp the peer's limit: an oversized Max would materialise
		// the whole store in one reply (and overflow the frame limit
		// anyway).
		max := int(req.Max)
		if max <= 0 || max > wire.MaxTransferBatch {
			max = wire.MaxTransferBatch
		}
		records, next, done, err := s.eng.SnapshotBatch(req.Cursor, max)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		batch := wire.SnapshotBatch{Next: next, Done: done, Records: records}
		if err := wire.WriteFrame(conn, wire.TypeSnapshotBatch, wire.EncodeSnapshotBatch(batch)); err != nil {
			s.writeError(conn, err)
		}
	case wire.TypeTransferPush:
		tp, err := wire.DecodeTransferPush(payload)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		s.observeEpoch(tp.Epoch)
		applied, err := s.applyTransfer(tp)
		if err != nil {
			s.writeError(conn, err)
			return true
		}
		_ = wire.WriteFrame(conn, wire.TypeTransferAck, wire.EncodeTransferAck(wire.TransferAck{Applied: applied}))
	default:
		s.writeError(conn, fmt.Errorf("server: unknown message type %d", msgType))
	}
	return true
}

// stats assembles the TypeStats report: mechanism parameters, per-subset
// record counts and — when the engine runs on a durable store — shard,
// segment and WAL sizes.
func (s *Server) stats() wire.Stats {
	params := s.eng.Params()
	tab := s.eng.Table()
	rep := wire.Stats{
		Params:     params.String(),
		P:          params.P,
		SketchBits: params.Length,
		Sketches:   uint64(s.eng.Sketches()),
		Robustness: &wire.Robustness{
			InFlight:         len(s.inflight),
			MaxInFlight:      cap(s.inflight),
			Overloads:        s.overloads.Load(),
			IdleCloses:       s.idleCloses.Load(),
			ChecksumErrors:   s.checksumErrors.Load(),
			DeadlineAbandons: s.deadlineAbandons.Load(),
		},
	}
	for _, b := range s.eng.Subsets() {
		rep.Subsets = append(rep.Subsets, wire.SubsetCount{
			Subset:    b.String(),
			Positions: b.Positions(),
			Count:     uint64(tab.CountForSubset(b)),
		})
	}
	if st := s.eng.Store(); st != nil {
		ss := st.Stats()
		ws := &wire.StoreStats{Dir: ss.Dir, Records: ss.Records}
		for _, sh := range ss.Shards {
			ws.Shards = append(ws.Shards, wire.ShardStats{
				Shard:          sh.Shard,
				WALBytes:       sh.WALBytes,
				WALRecords:     sh.WALRecords,
				Segments:       sh.Segments,
				SegmentBytes:   sh.SegmentBytes,
				SegmentRecords: sh.SegmentRecords,
			})
		}
		rep.Store = ws
	}
	return rep
}

// observeEpoch advances the node's view of the ring generation (it never
// goes backwards).
func (s *Server) observeEpoch(epoch uint64) {
	for {
		cur := s.epoch.Load()
		if epoch <= cur || s.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Epoch returns the highest ring epoch this server has observed.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// applyTransfer ingests a pushed batch as ONE batch through the engine's
// idempotent republish path — on an fsynced node one commit window per
// touched shard, not one per record — reporting how many records were
// newly stored.  A conflicting sketch — a different published object for
// a (user, subset) pair this node already holds — aborts the push with an
// error naming the user: it means two clusters disagree about a user's
// public record, which rebalancing must surface, never paper over.
func (s *Server) applyTransfer(tp wire.TransferPush) (uint64, error) {
	stored, err := s.eng.IngestBatchNew(tp.Records)
	if err != nil {
		return 0, fmt.Errorf("server: transfer push: %w", err)
	}
	return uint64(stored), nil
}

// plan answers one scatter-gather request: it rebuilds the query plan from
// the wire form, compiles the ownership filter (which keeps replicated
// records out of the cluster-wide sums) and executes the whole plan in one
// pass over the owned records, answering every entry in one reply.  A plan
// built for a superseded ring epoch is refused so the router retries under
// a fresh ring snapshot: merging one node's old-ring counters with
// another's new-ring counters would silently double-count or drop the
// records that moved between them.  The reply is assembled through the
// plan's refs, so even a request listing duplicate entries (which the plan
// deduplicates) maps each requested position to its counters.
func (s *Server) plan(pq wire.PlanQuery) (wire.PlanResult, error) {
	var epoch uint64
	if pq.Filter != nil && pq.Filter.Epoch != 0 {
		epoch = pq.Filter.Epoch
		if cur := s.epoch.Load(); epoch < cur {
			return wire.PlanResult{}, wire.StaleEpochError(epoch, cur)
		}
		s.observeEpoch(epoch)
	}
	keep, err := cluster.CompileFilter(pq.Filter)
	if err != nil {
		return wire.PlanResult{}, err
	}
	p := query.NewPlan()
	fracRefs := make([]query.FracRef, len(pq.Fractions))
	for i, f := range pq.Fractions {
		if fracRefs[i], err = p.AddFraction(f.Subset, f.Value); err != nil {
			return wire.PlanResult{}, err
		}
	}
	histRefs := make([]query.HistRef, len(pq.Hists))
	for i, h := range pq.Hists {
		subs := make([]query.SubQuery, len(h.Subs))
		for j, q := range h.Subs {
			subs[j] = query.SubQuery{Subset: q.Subset, Value: q.Value}
		}
		if h.HasGuard {
			// The wire guard indexes the request's fraction list; map it
			// through the dedup to this plan's ref (the decoder already
			// bounds-checked it).
			histRefs[i], err = p.AddHistogramGuarded(subs, fracRefs[h.Guard])
		} else {
			histRefs[i], err = p.AddHistogram(subs)
		}
		if err != nil {
			return wire.PlanResult{}, err
		}
	}
	countRefs := make([]query.CountRef, len(pq.Counts))
	for i, b := range pq.Counts {
		countRefs[i] = p.AddSubsetRecords(b)
	}
	if pq.Total {
		p.AddTotalRecords()
	}
	// Execute under the query's remaining end-to-end budget, when the
	// filter carries one: work the router has stopped waiting for is
	// abandoned at the next work-unit boundary instead of burning cores
	// to compute an answer nobody reads.
	ctx := context.Background()
	if pq.Filter != nil && pq.Filter.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(pq.Filter.Budget)*time.Millisecond)
		defer cancel()
	}
	res, err := s.eng.ExecutePlanCtx(ctx, p, keep)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.deadlineAbandons.Add(1)
			return wire.PlanResult{}, wire.DeadlineError(pq.Filter.Budget)
		}
		return wire.PlanResult{}, err
	}
	out := wire.PlanResult{Epoch: epoch}
	for _, ref := range fracRefs {
		part := res.Fraction(ref)
		out.Fractions = append(out.Fractions, wire.PlanFraction{Hits: part.Hits, Records: part.Records})
	}
	for _, ref := range histRefs {
		hp := res.Histogram(ref)
		out.Hists = append(out.Hists, wire.PlanHist{Users: hp.Users, Hist: hp.Hist})
	}
	for _, ref := range countRefs {
		out.Counts = append(out.Counts, res.Count(ref))
	}
	out.Total = res.Total
	return out, nil
}

func (s *Server) writeError(conn net.Conn, err error) {
	_ = wire.WriteFrame(conn, wire.TypeError, []byte(err.Error()))
}

// ErrRemote wraps an error message reported by the server.
var ErrRemote = errors.New("server: remote error")
