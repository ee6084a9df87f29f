// Package server provides the TCP collection daemon and its client: users
// publish sketches over the wire protocol, analysts ask for a plan's raw
// counters and debias them locally.  The server holds only public objects
// (the sketch table), so it needs no more trust than a bulletin board —
// exactly the deployment the paper's no-trusted-party mode calls for.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/wire"
)

// Server accepts publish and query frames over TCP and applies them to an
// engine.
type Server struct {
	*endpoint
	eng *engine.Engine

	deadlineAbandons atomic.Uint64 // plans abandoned mid-execution on budget expiry

	// epoch is the highest ring epoch this node has observed, learned from
	// hello handshakes, pings, ownership filters and a router's batches.  A
	// plan query built for an older epoch is refused (wire.StaleEpochError)
	// so results computed under a superseded ring are never merged into an
	// estimate — the router retries under a fresh ring snapshot instead.
	epoch atomic.Uint64

	filters filterMemo
}

// filterMemo keeps the last few compiled ownership filters by key, so a
// node builds a ring and its per-arc answers once per predicate instead of
// once per query.  The live ring plus a recovery variant is the steady
// state; a membership change or another tenant's domain is one more key,
// and past the bound the oldest goes (a miss costs one CompileFilter, what
// every query paid before).
type filterMemo struct {
	mu     sync.Mutex
	recent [8]*query.UserFilter
	next   int // the slot the next compiled filter replaces
}

// compile is cluster.CompileFilter, memoised under cluster.FilterKey: the
// key covers every field compilation reads, so a hit is the filter (and
// the verdict on its validity) a fresh compilation would produce.
func (m *filterMemo) compile(f *wire.Filter) (*query.UserFilter, error) {
	if f == nil {
		return nil, nil
	}
	key := cluster.FilterKey(f)
	// Held across a miss's compilation: the queries of one fan-out wave
	// that all meet a new ring compile it once, not once each.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, keep := range m.recent {
		if keep != nil && keep.Key == key {
			return keep, nil
		}
	}
	keep, err := cluster.CompileFilter(f)
	if err != nil {
		return nil, err
	}
	m.recent[m.next] = keep
	m.next = (m.next + 1) % len(m.recent)
	return keep, nil
}

// New creates a server around an engine with default guards.
func New(eng *engine.Engine) *Server {
	return NewWithConfig(eng, Config{})
}

// NewWithConfig creates a server with explicit robustness guards.
func NewWithConfig(eng *engine.Engine, cfg Config) *Server {
	s := &Server{eng: eng}
	s.endpoint = newEndpoint(cfg, s.dispatch)
	return s
}

// dispatch is a node's side of the protocol: every frame is applied to the
// engine.
func (s *Server) dispatch(msgType byte, payload []byte) (byte, []byte, error) {
	switch msgType {
	case wire.TypePublish:
		pub, err := wire.DecodePublished(payload)
		if err != nil {
			return 0, nil, err
		}
		return wire.TypeAck, nil, s.eng.Ingest(pub)
	case wire.TypePublishBatch:
		epoch, ps, err := wire.DecodePublishBatch(payload)
		if err != nil {
			return 0, nil, err
		}
		// A client's batch carries epoch 0; a router's rebalance push or
		// hint replay carries its ring epoch.  Either lands as ONE batch
		// through the engine's idempotent republish path — on an fsynced
		// node one commit window per touched shard, not one per record —
		// and the single ack means every record is durable.  A conflicting
		// sketch (a different published object for a (user, subset) pair
		// this node already holds) refuses the batch with an error naming
		// the user: for a push, two clusters disagree about a user's public
		// record, which rebalancing must surface, never paper over.
		s.observeEpoch(epoch)
		return wire.TypeAck, nil, s.eng.IngestBatch(ps)
	case wire.TypeStats:
		return wire.TypeStatsReply, wire.EncodeStats(s.stats()), nil
	case wire.TypeHello:
		if err := wire.CheckHello(payload); err != nil {
			return 0, nil, err
		}
		if _, epoch, has, err := wire.ParseHello(payload); err == nil && has {
			s.observeEpoch(epoch)
		}
		return wire.TypeHelloAck, wire.EncodeHello(), nil
	case wire.TypePing:
		if epoch, has, err := wire.ParsePing(payload); err == nil && has {
			s.observeEpoch(epoch)
		}
		pong := fmt.Sprintf("ok version=%d sketches=%d epoch=%d",
			wire.ProtocolVersion, s.eng.Sketches(), s.epoch.Load())
		return wire.TypePong, []byte(pong), nil
	case wire.TypePlanQuery:
		f, p, err := wire.DecodePlanQuery(payload)
		if err != nil {
			return 0, nil, err
		}
		epoch, res, err := s.plan(f, p)
		if err != nil {
			return 0, nil, err
		}
		return wire.TypePlanResult, wire.EncodePlanResult(epoch, res), nil
	case wire.TypeSnapshotRead:
		req, err := wire.DecodeSnapshotRead(payload)
		if err != nil {
			return 0, nil, err
		}
		batch, err := s.snapshot(req)
		return wire.TypeSnapshotBatch, wire.EncodeSnapshotBatch(batch), err
	default:
		return 0, nil, fmt.Errorf("server: unknown message type %d", msgType)
	}
}

// snapshot reads one batch of the rebalance stream.  The peer's limit is
// clamped (an oversized Max would materialise the whole store in one
// reply), and a batch cut by record count is then cut by bytes: the
// stream is stateless, so when wide subsets make the records outgrow one
// frame the same cursor is re-read with the count that fits.
func (s *Server) snapshot(req wire.SnapshotRead) (wire.SnapshotBatch, error) {
	max := int(req.Max)
	if max <= 0 || max > wire.MaxTransferBatch {
		max = wire.MaxTransferBatch
	}
	for {
		records, next, done, err := s.eng.SnapshotBatch(req.Cursor, max)
		if err != nil {
			return wire.SnapshotBatch{}, err
		}
		if max, err = wire.FrameBatch(records); err != nil {
			return wire.SnapshotBatch{}, err
		} else if max == len(records) {
			return wire.SnapshotBatch{Next: next, Done: done, Records: records}, nil
		}
	}
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
			ws.Shards = append(ws.Shards, wire.ShardStats(sh))
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

// plan answers one scatter-gather request: it compiles the ownership
// filter (which keeps replicated records out of the cluster-wide sums) once
// per filter identity and executes the decoded plan in one pass over the
// owned records, answering every entry in one reply, under the epoch it
// returns.  A plan built for a superseded ring epoch is refused so the
// router retries under a fresh ring snapshot: merging one node's old-ring
// counters with another's new-ring counters would silently double-count or
// drop the records that moved between them.
func (s *Server) plan(f *wire.Filter, p *query.Plan) (epoch uint64, res *query.Results, err error) {
	if f != nil && f.Epoch != 0 {
		epoch = f.Epoch
		if cur := s.epoch.Load(); epoch < cur {
			return 0, nil, wire.StaleEpochError(epoch, cur)
		}
		s.observeEpoch(epoch)
	}
	keep, err := s.filters.compile(f)
	if err != nil {
		return 0, nil, err
	}
	// Execute under the query's remaining end-to-end budget, when the
	// filter carries one: work the router has stopped waiting for is
	// abandoned at the next work-unit boundary instead of burning cores
	// to compute an answer nobody reads.
	ctx := context.Background()
	if f != nil && f.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(f.Budget)*time.Millisecond)
		defer cancel()
	}
	res, err = s.eng.ExecutePlanCtx(ctx, p, keep)
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadlineAbandons.Add(1)
		err = wire.DeadlineError(f.Budget)
	}
	return epoch, res, err
}
