package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// ErrRemote wraps an error message reported by the server.
var ErrRemote = errors.New("server: remote error")

// Client is a connection to a collection server.  It is not safe for
// concurrent use; open one client per goroutine.
type Client struct {
	conn net.Conn
}

// Dial connects to a collection server (or a sketchrouter — both speak the
// same protocol) and performs the version handshake: the hello carries
// this binary's protocol version, and a peer speaking a different version
// — or one too old to know the hello opcode — refuses the connection with
// a clear error instead of failing later with a decode error or a garbage
// estimate.
//
// Connecting and the handshake are each bounded (dialTimeout,
// helloTimeout), so a peer that accepts and then says nothing fails the
// dial instead of hanging it; the connection carries no deadline
// afterwards — Join and Drain are synchronous and legitimately long.
func Dial(addr string) (*Client, error) { return dial(addr, dialTimeout, helloTimeout) }

// dialTimeout is the router's own bound on a dial to a node
// (cluster.Config.DialTimeout's default); the hello is one small frame each
// way and gets as long again.
const (
	dialTimeout  = 2 * time.Second
	helloTimeout = 2 * time.Second
)

// dial is Dial with its two bounds given.
func dial(addr string, connect, hello time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, connect)
	if err != nil {
		return nil, err
	}
	err = conn.SetDeadline(time.Now().Add(hello))
	if err == nil {
		err = wire.ClientHandshake(conn)
	}
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	return &Client{conn: conn}, nil
}

// call runs one exchange: it sends a request frame and reads the one frame
// every request is answered with — the wanted reply type's payload, the
// server's TypeError text as an ErrRemote, or a type this client does not
// expect there, named by its number.
func (c *Client) call(msgType byte, payload []byte, wantReply byte) ([]byte, error) {
	if err := wire.WriteFrame(c.conn, msgType, payload); err != nil {
		return nil, err
	}
	replyType, reply, err := wire.ReadFrame(c.conn)
	switch {
	case err != nil:
		return nil, err
	case replyType == wantReply:
		return reply, nil
	case replyType == wire.TypeError:
		return nil, fmt.Errorf("%w: %s", ErrRemote, reply)
	default:
		return nil, fmt.Errorf("%w: unexpected reply type %d", ErrRemote, replyType)
	}
}

// Ping requests the peer's liveness text: a node reports its version and
// sketch count, a router reports ring membership, per-node liveness and
// ownership spans.
func (c *Client) Ping() (string, error) {
	text, err := c.call(wire.TypePing, nil, wire.TypePong)
	return string(text), err
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Join asks a sketchrouter to add node to the live cluster.  The call is
// synchronous: it returns after the router has streamed the moved
// ownership onto the node and cut the ring over (watch RebalanceStatus
// from another connection for progress).
func (c *Client) Join(node string) error {
	_, err := c.call(wire.TypeJoin, []byte(node), wire.TypeAck)
	return err
}

// Drain asks a sketchrouter to move node's ownership away and retire it
// from the ring.  Synchronous, like Join.
func (c *Client) Drain(node string) error {
	_, err := c.call(wire.TypeDrain, []byte(node), wire.TypeAck)
	return err
}

// RebalanceStatus asks a sketchrouter for its membership-change state.
func (c *Client) RebalanceStatus() (string, error) {
	text, err := c.call(wire.TypeRebalanceStatus, nil, wire.TypePong)
	return string(text), err
}

// Publish sends one published sketch and waits for the acknowledgement.
func (c *Client) Publish(p sketch.Published) error {
	_, err := c.call(wire.TypePublish, wire.EncodePublished(p), wire.TypeAck)
	return err
}

// PublishAll publishes a batch in chunked TypePublishBatch frames under
// no ring epoch — each the leading records that fit one frame
// (wire.FrameBatch) — stopping at the first error.  Each frame lands
// through the server's batched ingest — roughly one fsync'd commit window
// per touched store shard — and its single ack means every record in the
// chunk is durable.  On error the caller cannot assume which records of
// the failed chunk landed; re-publishing the whole batch is safe because
// ingestion is idempotent.
func (c *Client) PublishAll(ps []sketch.Published) error {
	for len(ps) > 0 {
		n, err := wire.FrameBatch(ps)
		if err != nil {
			return err
		}
		if _, err := c.call(wire.TypePublishBatch, wire.EncodePublishBatch(0, ps[:n]), wire.TypeAck); err != nil {
			return err
		}
		ps = ps[n:]
	}
	return nil
}

// Stats requests the server's stats report: mechanism parameters,
// per-subset record counts and durable-store sizes.
func (c *Client) Stats() (wire.Stats, error) {
	reply, err := c.call(wire.TypeStats, nil, wire.TypeStatsReply)
	if err != nil {
		return wire.Stats{}, err
	}
	return wire.DecodeStats(reply)
}

// Execute implements query.PartialSource: the plan travels as one
// unfiltered planQuery frame, to a node (its every record) or a router (the
// cluster's, merged exactly), and the raw counters come back for the
// caller's estimator to debias — est.Fraction(cli, b, v) asks a remote
// peer exactly as it asks an engine.  The reply is input: one that does
// not answer every entry of the plan is refused.
func (c *Client) Execute(p *query.Plan) (*query.Results, error) {
	reply, err := c.call(wire.TypePlanQuery, wire.EncodePlanQuery(nil, p), wire.TypePlanResult)
	if err != nil {
		return nil, err
	}
	_, res, err := wire.DecodePlanResult(reply)
	if err != nil {
		return nil, err
	}
	if len(res.Fractions) != len(p.Fractions()) || len(res.Hists) != len(p.Histograms()) || len(res.Counts) != len(p.CountSubsets()) {
		return nil, fmt.Errorf("server: the reply does not fit the plan: %w: %d/%d/%d fraction, histogram and count results for %d/%d/%d entries",
			query.ErrMismatch, len(res.Fractions), len(res.Hists), len(res.Counts), len(p.Fractions()), len(p.Histograms()), len(p.CountSubsets()))
	}
	return res, nil
}

// TotalRecords implements query.PartialSource with the total-only plan.
func (c *Client) TotalRecords() (uint64, error) { return query.TotalRecordsVia(c.Execute) }
