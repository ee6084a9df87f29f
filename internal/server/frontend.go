package server

import (
	"errors"
	"fmt"
	"strings"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/wire"
)

// ErrFilteredPlan refuses a plan sent to a router with an ownership filter:
// filters are what a router puts on the plans it fans out to its nodes, so
// one arriving at a router is a node's request sent to the wrong address.
var ErrFilteredPlan = errors.New("cluster: a router answers unfiltered plans only; ownership filters are for its nodes")

// ErrEpochBatch refuses a publish batch sent to a router with a ring epoch:
// an epoch is what a router stamps on the rebalance pushes and hint replays
// it sends its nodes, so one arriving at a router is a node-level transfer
// sent to the wrong address.  Nothing of it is published.
var ErrEpochBatch = errors.New("cluster: a router takes client batches only; an epoch-stamped batch is a transfer for its nodes")

// Frontend serves a router over TCP with the same wire protocol a sketchd
// node speaks: users publish through it (replicated by the ring) and
// analysts ask it for a plan's counters (scatter-gathered and merged
// exactly), so existing clients work against a cluster unchanged.  It is
// the node's connection loop with a router's dispatch, under the default
// Config.
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

// dispatch is a router's side of the protocol: publishes and plans go to
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
		epoch, ps, err := wire.DecodePublishBatch(payload)
		if err != nil {
			return 0, nil, err
		}
		if epoch != 0 {
			return 0, nil, ErrEpochBatch
		}
		// The router's replicated batch publish: a pipelined fan-out with
		// the same earliest-failure semantics the node's batched ingest
		// gives, so wire clients see one ack per batch on both surfaces.
		return wire.TypeAck, nil, f.r.PublishAll(ps)
	case wire.TypePlanQuery:
		filter, p, err := wire.DecodePlanQuery(payload)
		if err != nil {
			return 0, nil, err
		}
		if filter != nil {
			return 0, nil, ErrFilteredPlan
		}
		res, err := f.r.Execute(p)
		if err != nil {
			return 0, nil, err
		}
		return wire.TypePlanResult, wire.EncodePlanResult(0, res), nil
	case wire.TypeStats:
		return 0, nil, fmt.Errorf("cluster: stats is a per-node report; ping the router for cluster status")
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
	case wire.TypeSnapshotRead:
		return 0, nil, fmt.Errorf("cluster: snapshot reads are node-level; the router originates them during a rebalance")
	default:
		return 0, nil, fmt.Errorf("cluster: unknown message type %d", msgType)
	}
}
