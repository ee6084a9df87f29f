package fleettest

import (
	"net"
	"sync"
	"testing"

	"sketchprivacy/internal/wire"
)

// Proxy forwards a router's connections to one node frame by frame.  It
// counts the router→node frames by opcode and the wire bytes each way,
// and can hold a router→node frame at a gate.  The router only ever talks
// to the proxy's address, so its counts are exactly what crossed the wire.
// Connection control — the hello handshake and pings, with their replies
// — is counted by opcode but not in the byte totals: how many pooled
// connections a router dials depends on timing, not on the requests.
type Proxy struct {
	backend string
	ln      net.Listener

	mu      sync.Mutex
	counts  map[byte]int
	out, in int64 // request and reply bytes, connection control excluded
	gate    func(msgType byte)
	conns   map[net.Conn]struct{}
}

// Proxied puts a proxy in front of each node: the node's Addr becomes the
// proxy's, so a router built over the nodes afterwards dials through it.
func Proxied(t *testing.T, nodes ...*Node) {
	t.Helper()
	for _, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := &Proxy{backend: n.listen, ln: ln, counts: make(map[byte]int), conns: make(map[net.Conn]struct{})}
		go p.accept()
		t.Cleanup(p.close)
		n.Proxy, n.Addr = p, ln.Addr().String()
	}
}

// Requests returns the router→node frames counted so far by opcode,
// connection control (hello, ping) left out.
func (p *Proxy) Requests() map[byte]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	reqs := make(map[byte]int)
	for msgType, c := range p.counts {
		if !control(msgType) {
			reqs[msgType] = c
		}
	}
	return reqs
}

// Bytes returns the wire bytes that crossed router→node (out) and
// node→router (in) so far, connection control left out.
func (p *Proxy) Bytes() (out, in int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out, p.in
}

// StrayFrames counts the router→node frames seen since the last reset that
// are neither plan queries nor connection control: every query frame a
// router sends must be a TypePlanQuery.
func (p *Proxy) StrayFrames() int {
	n := 0
	for msgType, c := range p.Requests() {
		if msgType != wire.TypePlanQuery {
			n += c
		}
	}
	return n
}

// Reset zeroes the counts and the byte totals.
func (p *Proxy) Reset() {
	p.mu.Lock()
	p.counts = make(map[byte]int)
	p.out, p.in = 0, 0
	p.mu.Unlock()
}

// SetGate installs a hook run, and possibly blocking, before each
// router→node frame is forwarded.
func (p *Proxy) SetGate(gate func(msgType byte)) {
	p.mu.Lock()
	p.gate = gate
	p.mu.Unlock()
}

// control reports whether a frame is connection control: the handshake,
// a ping, or the reply to either.
func control(msgType byte) bool {
	switch msgType {
	case wire.TypeHello, wire.TypeHelloAck, wire.TypePing, wire.TypePong:
		return true
	}
	return false
}

func (p *Proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *Proxy) track(c net.Conn) { p.mu.Lock(); p.conns[c] = struct{}{}; p.mu.Unlock() }

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) accept() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		backend, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.track(client)
		p.track(backend)
		go p.forward(client, backend, true)
		go p.forward(backend, client, false)
	}
}

// forward copies frames from src to dst until either side closes, then
// closes both.  Requests are the router→node direction.
func (p *Proxy) forward(src, dst net.Conn, requests bool) {
	defer p.untrack(src)
	defer src.Close()
	defer dst.Close()
	for {
		msgType, payload, err := wire.ReadFrame(src)
		if err != nil {
			return
		}
		var gate func(byte)
		p.mu.Lock()
		size := int64(wire.FrameHeaderSize + len(payload))
		switch {
		case requests:
			p.counts[msgType]++
			gate = p.gate
			if !control(msgType) {
				p.out += size
			}
		case !control(msgType):
			p.in += size
		}
		p.mu.Unlock()
		if gate != nil {
			gate(msgType)
		}
		if err := wire.WriteFrame(dst, msgType, payload); err != nil {
			return
		}
	}
}
