package server

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// startVersionServer brings up a server on a loopback port and registers
// its teardown.
func startVersionServer(t *testing.T) string {
	t.Helper()
	srv, addr, _, _ := startTestServer(t, 0.3, 10)
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestDialRefusesPreHandshakeServer: dialing a peer too old to know the
// hello opcode (it answers with its unknown-message error, as the
// pre-cluster server did) fails loudly at Dial time.
func TestDialRefusesPreHandshakeServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		msgType, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		// Exactly what a pre-cluster server's default branch answers.
		_ = wire.WriteFrame(conn, wire.TypeError, []byte(fmt.Sprintf("server: unknown message type %d", msgType)))
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial accepted a peer that does not speak the handshake")
	} else if !strings.Contains(err.Error(), "handshake refused") {
		t.Fatalf("legacy-peer error not loud about the handshake: %v", err)
	}
}

// TestLegacyClientStillServed: a pre-handshake client that never sends a
// hello keeps working against a new server — version enforcement tightens
// only the new cluster paths, it does not strand deployed user agents.
func TestLegacyClientStillServed(t *testing.T) {
	addr := startVersionServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pub := sketch.Published{ID: 5, Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: 3, Length: 10}}
	if err := wire.WriteFrame(conn, wire.TypePublish, wire.EncodePublished(pub)); err != nil {
		t.Fatal(err)
	}
	msgType, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.TypeAck {
		t.Fatalf("legacy publish answered with type %d, want TypeAck", msgType)
	}
}
