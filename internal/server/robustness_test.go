package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/faultnet"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// testSource is the PRF every endpoint of this suite is built on.
func testSource() *prf.Biased {
	return prf.NewBiased(bytes.Repeat([]byte{0x11}, prf.MinKeyBytes), prf.MustProb(0.25))
}

// startCfgServer is startTestServer with a caller-chosen Config.
func startCfgServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	eng, err := engine.New(testSource(), sketch.MustParams(0.25, 10))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(eng, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// testEndpoint is one listening wire endpoint of the robustness table: the
// connection loop under test, where to dial it, the registry its
// RegisterMetrics filled, and — when it is a node — the server around it
// (nil for a router's frontend, which has no stats report).
type testEndpoint struct {
	*endpoint
	addr string
	reg  *obs.Registry
	node *Server
}

// counter scrapes one of the endpoint's server_* families.
func (ep testEndpoint) counter(t *testing.T, name string) float64 {
	t.Helper()
	f := lintFamilies(t, ep.reg)[name]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("family %s missing from the endpoint's exposition", name)
	}
	return f.Samples[0].Value
}

// startRouterEndpoint brings up a router over a 3-node loopback ring —
// hook, when non-nil, runs after each rebalance batch — and its frontend
// under cfg.  Production frontends run the default Config; the suite
// swaps the loop in before Listen to shrink the guards it trips.
func startRouterEndpoint(t *testing.T, cfg Config, hook func()) (testEndpoint, *cluster.Router) {
	t.Helper()
	var nodes []string
	for i := 0; i < 3; i++ {
		_, addr := startCfgServer(t, Config{})
		nodes = append(nodes, addr)
	}
	r, err := cluster.NewRouter(testSource(), cluster.Config{
		Nodes: nodes, Replication: 2, VNodes: 32, PingInterval: 100 * time.Millisecond, OnTransferBatch: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	f := NewFrontend(r)
	f.endpoint = newEndpoint(cfg, f.dispatch)
	ep := testEndpoint{endpoint: f.endpoint, reg: obs.NewRegistry()}
	f.RegisterMetrics(ep.reg)
	if ep.addr, err = f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return ep, r
}

// forEachEndpoint runs one robustness case against both endpoints of the
// protocol: a node over an engine and a router over a 3-node ring.  They
// share the connection loop, so every guard holds on both or on neither.
func forEachEndpoint(t *testing.T, cfg Config, run func(t *testing.T, ep testEndpoint)) {
	t.Run("node", func(t *testing.T) {
		srv, addr := startCfgServer(t, cfg)
		ep := testEndpoint{endpoint: srv.endpoint, addr: addr, reg: obs.NewRegistry(), node: srv}
		srv.RegisterMetrics(ep.reg)
		run(t, ep)
	})
	t.Run("router", func(t *testing.T) {
		ep, _ := startRouterEndpoint(t, cfg, nil)
		run(t, ep)
	})
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleConnectionsReaped checks the per-connection read deadline: a
// silent connection is closed after ReadIdleTimeout and counted, while a
// connection that keeps sending frames stays up indefinitely.
func TestIdleConnectionsReaped(t *testing.T) {
	forEachEndpoint(t, Config{ReadIdleTimeout: 150 * time.Millisecond}, func(t *testing.T, ep testEndpoint) {
		idle, err := Dial(ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer idle.Close()
		active, err := Dial(ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer active.Close()

		// The active connection pings every ~50ms across several idle windows;
		// each frame re-arms its deadline, so it must never be reaped.
		for i := 0; i < 10; i++ {
			if _, err := active.Ping(); err != nil {
				t.Fatalf("active connection reaped on ping %d: %v", i, err)
			}
			time.Sleep(50 * time.Millisecond)
		}

		waitUntil(t, 2*time.Second, func() bool { return ep.idleCloses.Load() >= 1 })
		if _, err := idle.Ping(); err == nil {
			t.Fatal("ping on the reaped idle connection succeeded")
		}
		if n := ep.counter(t, "server_idle_closes_total"); n < 1 {
			t.Fatalf("server_idle_closes_total = %v after an idle close", n)
		}
		if ep.node == nil {
			return
		}
		fresh, err := Dial(ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		rep, err := fresh.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Robustness == nil || rep.Robustness.IdleCloses < 1 {
			t.Fatalf("stats do not report the idle close: %+v", rep.Robustness)
		}
	})
}

// TestOverloadShedsLoudly fills the in-flight semaphore and checks the
// next frame is refused with a typed overload error — shed before
// execution, connection kept open — instead of queueing without bound.
func TestOverloadShedsLoudly(t *testing.T) {
	forEachEndpoint(t, Config{MaxInFlight: 1}, func(t *testing.T, ep testEndpoint) {
		cli, err := Dial(ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		// Occupy the only execution slot, as a long-running plan would.
		ep.inflight <- struct{}{}
		_, err = cli.Ping()
		if err == nil {
			t.Fatal("ping during a full in-flight window succeeded, want overload refusal")
		}
		if !wire.IsOverload(err.Error()) {
			t.Fatalf("refusal is not the typed overload error: %v", err)
		}
		if ep.overloads.Load() != 1 {
			t.Fatalf("overload counter is %d, want 1", ep.overloads.Load())
		}
		<-ep.inflight

		// The connection survived the shed and works once the window clears.
		if _, err := cli.Ping(); err != nil {
			t.Fatalf("ping after the overload window failed: %v", err)
		}
		if shed, limit := ep.counter(t, "server_overloads_total"), ep.counter(t, "server_inflight_limit"); shed != 1 || limit != 1 {
			t.Fatalf("exposition reports %v sheds under a limit of %v, want 1 and 1", shed, limit)
		}
		if ep.node == nil {
			return
		}
		rep, err := cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Robustness == nil || rep.Robustness.Overloads != 1 || rep.Robustness.MaxInFlight != 1 {
			t.Fatalf("stats do not report the shed: %+v", rep.Robustness)
		}
	})
}

// TestChecksumRefusalClosesConnection sends a frame whose CRC does not
// match its payload: the endpoint must refuse it with the checksum error,
// count it, and hang up — a desynchronized stream cannot be re-framed.
func TestChecksumRefusalClosesConnection(t *testing.T) {
	forEachEndpoint(t, Config{}, func(t *testing.T, ep testEndpoint) {
		conn := dialRaw(t, ep.addr)

		// A valid ping frame with its checksum flipped.
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, wire.TypePing, nil); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		frame[len(frame)-1] ^= 0xFF
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}

		msgType, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("no refusal reply: %v", err)
		}
		if msgType != wire.TypeError || !strings.Contains(string(payload), wire.ErrFrameChecksum.Error()) {
			t.Fatalf("refusal is type %d payload %q, want the checksum error", msgType, payload)
		}
		if _, _, err := wire.ReadFrame(conn); err == nil {
			t.Fatal("connection still open after a checksum refusal")
		}
		if ep.checksumErrors.Load() != 1 || ep.counter(t, "server_checksum_errors_total") != 1 {
			t.Fatalf("checksum counter is %d, want 1", ep.checksumErrors.Load())
		}
		// The hello was a frame served; the refused one was not.
		if n := ep.counter(t, "server_frames_total"); n != 1 {
			t.Fatalf("server_frames_total = %v after a hello and a refused frame, want 1", n)
		}
	})
}

// TestCloseWithIdleConnection: Close must not wait for idle clients to
// hang up — a daemon with a connected but silent sketchctl still has to
// reach its final store flush on shutdown.
func TestCloseWithIdleConnection(t *testing.T) {
	forEachEndpoint(t, Config{}, func(t *testing.T, ep testEndpoint) {
		cli, err := Dial(ep.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		// Prove the connection is live before the shutdown.
		if _, err := cli.Ping(); err != nil {
			t.Fatal(err)
		}

		done := make(chan error, 1)
		go func() { done <- ep.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close blocked on an idle client connection")
		}
		// The client sees its connection die rather than hanging forever.
		if _, err := cli.Ping(); err == nil {
			t.Fatal("request on a closed endpoint's connection succeeded")
		}
	})
}

func TestServerCloseStopsAccepting(t *testing.T) {
	forEachEndpoint(t, Config{}, func(t *testing.T, ep testEndpoint) {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Dial(ep.addr); err == nil {
			t.Error("dial succeeded after Close")
		}
	})
}

// TestVersionHandshakeMismatch is the mixed-version regression test: a
// peer announcing a different protocol version (the one before this
// binary's, or one after it) must be refused with a clear error naming
// both versions — never a decode panic or a silently wrong answer — and the
// refusal ends the connection.
func TestVersionHandshakeMismatch(t *testing.T) {
	forEachEndpoint(t, Config{}, func(t *testing.T, ep testEndpoint) {
		for _, peer := range []byte{wire.ProtocolVersion - 1, wire.ProtocolVersion + 1} {
			conn, err := net.Dial("tcp", ep.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			msgType, payload := roundTripRaw(t, conn, wire.TypeHello, []byte{peer})
			if msgType != wire.TypeError {
				t.Fatalf("v%d hello answered with type %d, want TypeError", peer, msgType)
			}
			msg := string(payload)
			if !strings.Contains(msg, "version mismatch") ||
				!strings.Contains(msg, fmt.Sprintf("v%d", peer)) ||
				!strings.Contains(msg, fmt.Sprintf("v%d", wire.ProtocolVersion)) {
				t.Fatalf("mismatch error does not name both versions: %q", msg)
			}
			if _, _, err := wire.ReadFrame(conn); err == nil {
				t.Fatalf("connection still open after a refused v%d hello", peer)
			}
		}
	})
}

// TestRetiredOpcodeRefused: opcodes 2 and 3, the analyst's one-conjunction
// query and its estimate of wire versions before 7, opcode 12, the
// one-evaluation query of versions before 6, and an opcode nobody ever
// assigned are unknown message types to both endpoints — answered with a
// TypeError, not a decode attempt — and the refusal leaves the connection
// usable for the plan query that replaced them.
func TestRetiredOpcodeRefused(t *testing.T) {
	forEachEndpoint(t, Config{}, func(t *testing.T, ep testEndpoint) {
		conn := dialRaw(t, ep.addr)
		// Opcode 12 carries a well-formed v5 total-records request: kind
		// 4, no filter.
		for _, opcode := range []byte{2, 3, 12, 200} {
			replyType, reply := roundTripRaw(t, conn, opcode, []byte{4, 0})
			if replyType != wire.TypeError || !strings.Contains(string(reply), fmt.Sprintf("unknown message type %d", opcode)) {
				t.Fatalf("opcode %d answered with type %d: %s", opcode, replyType, reply)
			}
			if replyType, reply = roundTripRaw(t, conn, wire.TypePing, nil); replyType != wire.TypePong {
				t.Fatalf("ping after the refusal answered with type %d: %s", replyType, reply)
			}
		}
		replyType, reply := roundTripRaw(t, conn, wire.TypePlanQuery, wire.EncodePlanQuery(nil, totalPlan()))
		if replyType != wire.TypePlanResult {
			t.Fatalf("plan query after the refusal answered with type %d: %s", replyType, reply)
		}
	})
}

// scriptedEndpoint listens with a dispatch function of the test's own
// behind the handshake, so the loop and the client's exchange are driven
// apart from any engine.
func scriptedEndpoint(t *testing.T, script dispatch) string {
	t.Helper()
	ep := newEndpoint(Config{}, func(msgType byte, payload []byte) (byte, []byte, error) {
		if msgType == wire.TypeHello {
			return wire.TypeHelloAck, wire.EncodeHello(), nil
		}
		return script(msgType, payload)
	})
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return addr
}

// TestOversizedReplyBecomesErrorFrame: whatever its type, a reply the
// frame limit refuses is answered with that refusal as a TypeError — a
// client awaiting a reply never blocks forever — and the connection
// serves the next request.
func TestOversizedReplyBecomesErrorFrame(t *testing.T) {
	addr := scriptedEndpoint(t, func(msgType byte, payload []byte) (byte, []byte, error) {
		// Echo the request's type; an empty payload asks for a reply one
		// byte past the limit.
		if len(payload) == 0 {
			return msgType, make([]byte, wire.MaxFrameSize+1), nil
		}
		return msgType, payload, nil
	})
	conn := dialRaw(t, addr)
	for _, replyType := range []byte{wire.TypeAck, wire.TypePong, wire.TypeStatsReply, wire.TypePlanResult, wire.TypeSnapshotBatch, wire.TypeTransferAck, 99} {
		gotType, reply := roundTripRaw(t, conn, replyType, nil)
		if gotType != wire.TypeError || !strings.Contains(string(reply), wire.ErrFrameTooLarge.Error()) {
			t.Fatalf("an oversized reply of type %d was answered with type %d: %.80s", replyType, gotType, reply)
		}
		if gotType, reply = roundTripRaw(t, conn, replyType, []byte("fits")); gotType != replyType || string(reply) != "fits" {
			t.Fatalf("the request after an oversized type-%d reply was answered with type %d: %.80s", replyType, gotType, reply)
		}
	}
}

// TestClientCallMapsReplies drives all eight client methods against a
// scripted endpoint: a TypeError reply becomes ErrRemote with the server's
// text, a reply of a type the method does not expect becomes ErrRemote
// naming that type's number, and the connection stays usable after both.
func TestClientCallMapsReplies(t *testing.T) {
	const strange = 77
	addr := scriptedEndpoint(t, func(msgType byte, payload []byte) (byte, []byte, error) {
		if msgType == wire.TypePing {
			return wire.TypePong, []byte("pong"), nil
		}
		return strange, nil, nil
	})
	refusing := scriptedEndpoint(t, func(msgType byte, payload []byte) (byte, []byte, error) {
		return 0, nil, fmt.Errorf("scripted refusal of type %d", msgType)
	})
	pub := sketch.Published{ID: 1, Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: 1, Length: 10}}
	methods := []struct {
		name    string
		msgType byte
		call    func(c *Client) error
	}{
		{"Join", wire.TypeJoin, func(c *Client) error { return c.Join("127.0.0.1:1") }},
		{"Drain", wire.TypeDrain, func(c *Client) error { return c.Drain("127.0.0.1:1") }},
		{"RebalanceStatus", wire.TypeRebalanceStatus, func(c *Client) error { _, err := c.RebalanceStatus(); return err }},
		{"Publish", wire.TypePublish, func(c *Client) error { return c.Publish(pub) }},
		{"PublishAll", wire.TypePublishBatch, func(c *Client) error { return c.PublishAll([]sketch.Published{pub}) }},
		{"Stats", wire.TypeStats, func(c *Client) error { _, err := c.Stats(); return err }},
		{"Execute", wire.TypePlanQuery, func(c *Client) error { _, err := c.Execute(totalPlan()); return err }},
		{"Ping", wire.TypePing, func(c *Client) error { _, err := c.Ping(); return err }},
	}
	odd, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer odd.Close()
	refused, err := Dial(refusing)
	if err != nil {
		t.Fatal(err)
	}
	defer refused.Close()
	for _, m := range methods {
		err := m.call(refused)
		if want := fmt.Sprintf("scripted refusal of type %d", m.msgType); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s against a refusing server = %v, want ErrRemote carrying %q", m.name, err, want)
		}
		if m.name == "Ping" {
			continue // the scripted server answers pings properly, checked below
		}
		err = m.call(odd)
		if want := fmt.Sprintf("unexpected reply type %d", strange); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s answered with a strange type = %v, want ErrRemote carrying %q", m.name, err, want)
		}
		if text, err := odd.Ping(); err != nil || text != "pong" {
			t.Fatalf("ping after %s's strange reply = %q, %v", m.name, text, err)
		}
	}
	// Ping's own unexpected type: an ack where a pong belongs.
	acking := scriptedEndpoint(t, func(byte, []byte) (byte, []byte, error) { return wire.TypeAck, nil, nil })
	acked, err := Dial(acking)
	if err != nil {
		t.Fatal(err)
	}
	defer acked.Close()
	if _, err := acked.Ping(); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), fmt.Sprintf("unexpected reply type %d", wire.TypeAck)) {
		t.Errorf("Ping answered with an ack = %v, want ErrRemote naming type %d", err, wire.TypeAck)
	}
}

// TestJoinHoldsOneSlotOnly: a synchronous Join occupies its connection and
// one in-flight slot for as long as the rebalance streams; a ping on
// another connection is served meanwhile, and sees the slot held.
func TestJoinHoldsOneSlotOnly(t *testing.T) {
	// The hook runs once per streamed batch — one empty batch per member
	// here — so streaming's buffer outlasts every send.
	streaming, release := make(chan struct{}, 16), make(chan struct{})
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // a failing check must not leave the join, and Close, hanging
	ep, _ := startRouterEndpoint(t, Config{}, func() {
		streaming <- struct{}{}
		<-release
	})
	_, joiner := startCfgServer(t, Config{})

	admin, err := Dial(ep.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	joined := make(chan error, 1)
	go func() { joined <- admin.Join(joiner) }()
	<-streaming // the rebalance is mid-stream, holding the join's frame

	cli, err := Dial(ep.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if status, err := cli.RebalanceStatus(); err != nil || !strings.Contains(status, "active verb=join") {
		t.Fatalf("rebalance status beside a running join = %q, %v", status, err)
	}
	if _, err := cli.Ping(); err != nil {
		t.Fatalf("ping beside a running join: %v", err)
	}
	// The ping's slot is freed just after its reply is written; then the
	// join's is the only one held.
	waitUntil(t, 2*time.Second, func() bool { return len(ep.inflight) == 1 })
	letGo()
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	if status, err := cli.Ping(); err != nil || !strings.Contains(status, joiner) {
		t.Fatalf("ping after the join does not list %s: %q, %v", joiner, status, err)
	}
}

// TestServeThroughFaultnetListener runs the server behind a fault-injecting
// listener adding latency to every accepted connection: the protocol must
// work unchanged through the wrapped conns, and slow-but-live clients must
// not trip the idle reaper.
func TestServeThroughFaultnetListener(t *testing.T) {
	eng, err := engine.New(testSource(), sketch.MustParams(0.25, 10))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(eng, Config{ReadIdleTimeout: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fab := faultnet.NewFabric(11)
	ep := fab.Endpoint("server")
	ep.SetDefaultPlan(faultnet.Plan{ReadDelay: 20 * time.Millisecond, WriteDelay: 5 * time.Millisecond})
	addr := srv.Serve(ep.Listen(ln, "client"))
	t.Cleanup(func() { srv.Close() })

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if _, err := cli.Ping(); err != nil {
			t.Fatalf("ping %d through the fault listener failed: %v", i, err)
		}
	}
	rep, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Robustness == nil || rep.Robustness.IdleCloses != 0 {
		t.Fatalf("slow-but-live client tripped the reaper: %+v", rep.Robustness)
	}
}

// TestDialBoundsTheHello: a peer that accepts and then blackholes — the
// socket opens, the hello is swallowed, nothing answers — fails the dial
// within the hello bound instead of hanging it forever; and against a live
// peer the bound is lifted once the handshake is done, so a connection
// idle (or inside a long synchronous Join) past it still works.
func TestDialBoundsTheHello(t *testing.T) {
	eng, err := engine.New(testSource(), sketch.MustParams(0.25, 10))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := faultnet.NewFabric(5).Endpoint("server")
	addr := srv.Serve(ep.Listen(ln, "client"))
	t.Cleanup(func() { srv.Close() })

	const hello = 100 * time.Millisecond
	cli, err := dial(addr, time.Second, hello)
	if err != nil {
		t.Fatalf("dial of a live peer: %v", err)
	}
	defer cli.Close()
	time.Sleep(2 * hello)
	if _, err := cli.Ping(); err != nil {
		t.Fatalf("ping %v after the handshake, past the hello bound: %v", 2*hello, err)
	}

	ep.Blackhole()
	start := time.Now()
	dark, err := dial(addr, time.Second, hello)
	if err == nil {
		dark.Close()
		t.Fatal("dial of a peer that accepts and then says nothing succeeded")
	}
	if took := time.Since(start); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "timeout") || took > 20*hello {
		t.Fatalf("dial of a blackholed peer failed with %v after %v, want a timeout within the hello bound", err, took)
	}
}
