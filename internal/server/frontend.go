package server

import (
	"fmt"
	"strings"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/wire"
)

// Frontend serves a router over TCP with the same wire protocol a sketchd
// node speaks: users publish through it (replicated by the ring) and
// analysts query through it (scatter-gathered and merged exactly), so
// existing clients work against a cluster unchanged.  It is the node's
// connection loop with a router's dispatch, under the default Config.
type Frontend struct {
	*endpoint
	r *cluster.Router
}

// NewFrontend wraps a router in a TCP server.  Closing the frontend does
// not close the router (the process may share it).
func NewFrontend(r *cluster.Router) *Frontend {
	f := &Frontend{r: r}
	f.endpoint = newEndpoint(Config{}, f.dispatch)
	return f
}

// dispatch is a router's side of the protocol: publishes and queries go to
// the ring, the admin opcodes change its membership, and the node-level
// opcodes are refused by name.
func (f *Frontend) dispatch(msgType byte, payload []byte) (byte, []byte, error) {
	switch msgType {
	case wire.TypeHello:
		return wire.TypeHelloAck, wire.EncodeHello(), wire.CheckHello(payload)
	case wire.TypePing:
		return wire.TypePong, []byte(f.r.Status()), nil
	case wire.TypePublish:
		pub, err := wire.DecodePublished(payload)
		if err != nil {
			return 0, nil, err
		}
		return wire.TypeAck, nil, f.r.Publish(pub)
	case wire.TypePublishBatch:
		ps, err := wire.DecodePublishBatch(payload)
		if err != nil {
			return 0, nil, err
		}
		// The router's replicated batch publish: a pipelined fan-out with
		// the same earliest-failure semantics the node's batched ingest
		// gives, so wire clients see one ack per batch on both surfaces.
		return wire.TypeAck, nil, f.r.PublishAll(ps)
	case wire.TypeQuery:
		q, err := wire.DecodeQuery(payload)
		if err != nil {
			return 0, nil, err
		}
		return conjunctionReply(f.r.Estimator().Fraction(f.r, q.Subset, q.Value))
	case wire.TypeStats:
		return 0, nil, fmt.Errorf("cluster: stats is a per-node report; ping the router for cluster status")
	case wire.TypePlanQuery:
		return 0, nil, fmt.Errorf("cluster: plan queries are node-level; send full queries to the router")
	case wire.TypeJoin:
		// Synchronous by design: the ack means the rebalance streamed and
		// the ring cut over.  The frame holds one in-flight slot for that
		// long; watch TypeRebalanceStatus from another connection for
		// progress.
		return wire.TypeAck, nil, f.r.Join(strings.TrimSpace(string(payload)))
	case wire.TypeDrain:
		return wire.TypeAck, nil, f.r.Drain(strings.TrimSpace(string(payload)))
	case wire.TypeRebalanceStatus:
		return wire.TypePong, []byte(f.r.RebalanceStatus()), nil
	case wire.TypeSnapshotRead, wire.TypeTransferPush:
		return 0, nil, fmt.Errorf("cluster: transfer opcodes are node-level; the router originates them during a rebalance")
	default:
		return 0, nil, fmt.Errorf("cluster: unknown message type %d", msgType)
	}
}
