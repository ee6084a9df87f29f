package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"sketchprivacy/internal/wire"
)

// Frontend serves the router over TCP with the same wire protocol a
// sketchd node speaks: users publish through it (replicated by the ring)
// and analysts query through it (scatter-gathered and merged exactly), so
// existing clients work against a cluster unchanged.
type Frontend struct {
	r *Router

	// ReadIdleTimeout bounds how long a client connection may sit silent
	// between frames (default 5m, set before Listen/Serve): like the node
	// servers, a wedged or vanished client is reaped instead of pinning a
	// handler goroutine forever.
	ReadIdleTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewFrontend wraps a router in a TCP server.
func NewFrontend(r *Router) *Frontend {
	return &Frontend{r: r, ReadIdleTimeout: 5 * time.Minute, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting connections on addr and returns the bound
// address.
func (f *Frontend) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return f.Serve(ln), nil
}

// Serve starts accepting connections from an already-bound listener and
// returns its address; fault-injection tests pass a wrapped listener.
func (f *Frontend) Serve(ln net.Listener) string {
	f.mu.Lock()
	f.listener = ln
	f.mu.Unlock()
	f.wg.Add(1)
	go f.acceptLoop(ln)
	return ln.Addr().String()
}

func (f *Frontend) acceptLoop(ln net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.handle(conn)
		}()
	}
}

// Close stops the listener, closes every open connection and waits for the
// handlers to finish.  It does not close the router (the process may share
// it).
func (f *Frontend) Close() error {
	f.mu.Lock()
	ln := f.listener
	f.closed = true
	for conn := range f.conns {
		conn.Close()
	}
	f.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	f.wg.Wait()
	return err
}

func (f *Frontend) track(conn net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false
	}
	f.conns[conn] = struct{}{}
	return true
}

func (f *Frontend) untrack(conn net.Conn) {
	f.mu.Lock()
	delete(f.conns, conn)
	f.mu.Unlock()
}

func (f *Frontend) handle(conn net.Conn) {
	defer conn.Close()
	if !f.track(conn) {
		return
	}
	defer f.untrack(conn)
	for {
		if f.ReadIdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(f.ReadIdleTimeout)); err != nil {
				return
			}
		}
		msgType, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		switch msgType {
		case wire.TypeHello:
			if err := wire.CheckHello(payload); err != nil {
				// Refusal ends the connection: an incompatible peer's next
				// frames would decode as garbage.
				f.writeError(conn, err)
				return
			}
			_ = wire.WriteFrame(conn, wire.TypeHelloAck, wire.EncodeHello())
		case wire.TypePing:
			_ = wire.WriteFrame(conn, wire.TypePong, []byte(f.r.Status()))
		case wire.TypePublish:
			pub, err := wire.DecodePublished(payload)
			if err != nil {
				f.writeError(conn, err)
				continue
			}
			if err := f.r.Publish(pub); err != nil {
				f.writeError(conn, err)
				continue
			}
			_ = wire.WriteFrame(conn, wire.TypeAck, nil)
		case wire.TypePublishBatch:
			ps, err := wire.DecodePublishBatch(payload)
			if err != nil {
				f.writeError(conn, err)
				continue
			}
			// The router's replicated batch publish: a pipelined fan-out
			// with the same earliest-failure semantics the node's batched
			// ingest gives, so wire clients see one ack per batch on both
			// surfaces.
			if err := f.r.PublishAll(ps); err != nil {
				f.writeError(conn, err)
				continue
			}
			_ = wire.WriteFrame(conn, wire.TypeAck, nil)
		case wire.TypeQuery:
			q, err := wire.DecodeQuery(payload)
			if err != nil {
				f.writeError(conn, err)
				continue
			}
			est, err := f.r.Conjunction(q.Subset, q.Value)
			if err != nil {
				f.writeError(conn, err)
				continue
			}
			res := wire.Result{Fraction: est.Fraction, Raw: est.Raw, Users: uint64(est.Users)}
			_ = wire.WriteFrame(conn, wire.TypeResult, wire.EncodeResult(res))
		case wire.TypeStats:
			f.writeError(conn, fmt.Errorf("cluster: stats is a per-node report; ping the router for cluster status"))
		case wire.TypePlanQuery:
			f.writeError(conn, fmt.Errorf("cluster: plan queries are node-level; send full queries to the router"))
		case wire.TypeJoin:
			// Synchronous by design: the ack means the rebalance streamed
			// and the ring cut over.  Watch TypeRebalanceStatus from
			// another connection for progress.
			if err := f.r.Join(strings.TrimSpace(string(payload))); err != nil {
				f.writeError(conn, err)
				continue
			}
			_ = wire.WriteFrame(conn, wire.TypeAck, nil)
		case wire.TypeDrain:
			if err := f.r.Drain(strings.TrimSpace(string(payload))); err != nil {
				f.writeError(conn, err)
				continue
			}
			_ = wire.WriteFrame(conn, wire.TypeAck, nil)
		case wire.TypeRebalanceStatus:
			_ = wire.WriteFrame(conn, wire.TypePong, []byte(f.r.RebalanceStatus()))
		case wire.TypeSnapshotRead, wire.TypeTransferPush:
			f.writeError(conn, fmt.Errorf("cluster: transfer opcodes are node-level; the router originates them during a rebalance"))
		default:
			f.writeError(conn, fmt.Errorf("cluster: unknown message type %d", msgType))
		}
	}
}

func (f *Frontend) writeError(conn net.Conn, err error) {
	_ = wire.WriteFrame(conn, wire.TypeError, []byte(err.Error()))
}
