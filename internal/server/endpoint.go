package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

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

// dispatch executes one request frame and returns the reply frame, or the
// error to report.  It decodes, calls and encodes — it never sees the
// connection, so it cannot write a frame, forget a reply or leave one
// half-written: the endpoint's loop does all the writing.
type dispatch func(msgType byte, payload []byte) (replyType byte, reply []byte, err error)

// endpoint is the one connection loop of the wire protocol: it accepts and
// tracks connections, arms a fresh read-idle deadline per frame, sheds
// frames past MaxInFlight, answers a checksum mismatch and hangs up, hands
// every other frame to its dispatch function and writes the reply.  A node
// (Server) and a router (Frontend) embed it with their own dispatch, so
// the port a fleet's clients dial has exactly a node's guards and
// counters.
type endpoint struct {
	readIdle time.Duration
	dispatch dispatch

	// inflight is the frame-execution semaphore implementing MaxInFlight.
	inflight chan struct{}

	// Robustness counters, reported in a node's stats and on /metrics.
	frames         atomic.Uint64 // frames served, all message types
	overloads      atomic.Uint64 // frames shed by the in-flight guard
	idleCloses     atomic.Uint64 // connections closed by the idle timeout
	checksumErrors atomic.Uint64 // frames refused with a CRC mismatch

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

func newEndpoint(cfg Config, d dispatch) *endpoint {
	cfg = cfg.withDefaults()
	return &endpoint{
		readIdle: cfg.ReadIdleTimeout,
		dispatch: d,
		inflight: make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.  Serving happens on background goroutines
// until Close is called.
func (e *endpoint) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return e.Serve(ln), nil
}

// Serve starts accepting connections from an already-bound listener and
// returns its address.  Fault-injection tests pass a faultnet-wrapped
// listener through here; Listen delegates to it for the common case.
func (e *endpoint) Serve(ln net.Listener) string {
	e.mu.Lock()
	e.listener = ln
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.handle(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// Close stops the listener, closes every open connection and waits for
// the handler goroutines to finish.  Closing the connections (rather
// than waiting for clients to hang up) is what lets a daemon with idle
// clients still reach its final store flush on shutdown.  What the
// dispatch function serves — an engine, a router the process may share —
// is not closed.
func (e *endpoint) Close() error {
	e.mu.Lock()
	ln := e.listener
	e.closed = true
	for conn := range e.conns {
		conn.Close()
	}
	e.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	e.wg.Wait()
	return err
}

// track registers a live connection, or refuses it when the endpoint is
// already closing.
func (e *endpoint) track(conn net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.conns[conn] = struct{}{}
	return true
}

func (e *endpoint) untrack(conn net.Conn) {
	e.mu.Lock()
	delete(e.conns, conn)
	e.mu.Unlock()
}

// handle serves one connection until it closes, a protocol error occurs,
// the idle timeout fires or the endpoint shuts down.  Every frame passes
// the in-flight guard before executing: past MaxInFlight concurrently
// executing frames the request is shed with a retryable overload refusal,
// so a flood of expensive plans degrades into refusals instead of
// unbounded queueing.
func (e *endpoint) handle(conn net.Conn) {
	defer conn.Close()
	if !e.track(conn) {
		return
	}
	defer e.untrack(conn)
	for {
		// Arm a fresh idle deadline before each frame read: a connection
		// that goes silent mid-frame or disappears without closing is
		// reaped instead of pinning a goroutine and a socket forever.
		if err := conn.SetReadDeadline(time.Now().Add(e.readIdle)); err != nil {
			return
		}
		msgType, payload, err := wire.ReadFrame(conn)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				e.idleCloses.Add(1)
			}
			if errors.Is(err, wire.ErrFrameChecksum) {
				// The frame was read in full, so the stream is still
				// framed — but its bytes cannot be trusted.  Report the
				// corruption and hang up; the client redials.
				e.checksumErrors.Add(1)
				writeError(conn, err)
			}
			return
		}
		select {
		case e.inflight <- struct{}{}:
		default:
			e.overloads.Add(1)
			writeError(conn, wire.OverloadError(cap(e.inflight)))
			continue
		}
		// Every request gets exactly one frame back: the dispatch
		// function's reply or its error.  A reply of any type that
		// WriteFrame refuses as too large is such an error too — the
		// client would otherwise block forever awaiting one.  (When the
		// write failed because the connection broke, so does this one,
		// and the next read ends the loop.)
		e.frames.Add(1)
		replyType, reply, err := e.dispatch(msgType, payload)
		if err == nil {
			err = wire.WriteFrame(conn, replyType, reply)
		}
		if err != nil {
			writeError(conn, err)
		}
		<-e.inflight
		// A refused hello ends the connection, not just warns: a
		// mixed-version peer's subsequent frames would decode as garbage.
		if err != nil && msgType == wire.TypeHello {
			return
		}
	}
}

func writeError(conn net.Conn, err error) {
	_ = wire.WriteFrame(conn, wire.TypeError, []byte(err.Error()))
}
