// Package fleettest assembles the serving stack in one test process for
// whole-stack tests: loopback nodes (an engine behind a real TCP server,
// in memory or durable over a store, restartable on their address), a
// cluster router over them with the replication factor and config a test
// asks for, and the HTTP gateway in front with a one-tenant keyring.  A
// router can dial its nodes through a faultnet fabric, or through one
// frame-counting proxy per node that tallies requests by opcode and wire
// bytes both ways and can hold a frame at a gate.  It also starts the
// daemon binaries for the tests whose subject is their flags and
// listeners.
//
// It is built only from the packages' exported constructors, as the
// benchmark's fleet is, so a test that passes here passes against the
// same code the daemons run.  The mechanism is fixed — p = 0.3, ℓ = 10,
// one public generator key — so a reference engine built from Source and
// Params answers bit-identically to the fleet over the same records.
// Only tests import it; no binary links it.
package fleettest

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/faultnet"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

// The fleet's mechanism: every node, router, gateway and reference engine
// a test builds evaluates this H at this length.
const (
	P      = 0.3
	Length = 10
)

// master is the public generator key H is keyed with; a keyring derives
// its tenants' id domains from it too.
func master() []byte { return bytes.Repeat([]byte{0x5a}, prf.MinKeyBytes) }

// Source returns the fleet's H.
func Source() *prf.Biased { return prf.NewBiased(master(), prf.MustProb(P)) }

// Params returns the fleet's sketch parameters.
func Params() sketch.Params { return sketch.MustParams(P, Length) }

// Node is one in-process sketchd: an engine behind a real TCP server, its
// engine (and store) metrics on a registry of its own.
type Node struct {
	// Addr is the node's name on the ring: the address a router dials,
	// which is its proxy's once the node is proxied.
	Addr  string
	Eng   *engine.Engine
	Srv   *server.Server
	Reg   *obs.Registry
	Store *store.Durable // nil for a node in memory
	Proxy *Proxy         // nil unless the node is proxied
	// listen is the server's own address, which a restart listens on.
	listen string
}

// StartNodes brings up n loopback nodes in memory.
func StartNodes(t *testing.T, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = StartNode(t, nil)
	}
	return nodes
}

// StartNode brings up one loopback node, in memory when opts is nil and
// otherwise durable over the store opts opens, whose metrics go to the
// node's registry.  The server and the store close at the test's end.
func StartNode(t *testing.T, opts *store.Options) *Node {
	t.Helper()
	eng, err := engine.New(Source(), Params())
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{Eng: eng, Reg: obs.NewRegistry()}
	if opts != nil {
		o := *opts
		o.Metrics = n.Reg
		if n.Store, err = store.Open(o); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Store.Close() })
		if err := eng.AttachStore(n.Store); err != nil {
			t.Fatal(err)
		}
	}
	eng.SetMetrics(n.Reg)
	n.listen = "127.0.0.1:0"
	n.Restart(t)
	n.Addr = n.listen
	return n
}

// Restart serves the node's engine, as it stands, from a new server on the
// node's address: a node that comes back after its server was closed.
func (n *Node) Restart(t *testing.T) {
	t.Helper()
	srv := server.New(n.Eng)
	addr, err := srv.Listen(n.listen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	n.Srv, n.listen = srv, addr
}

// StartRouter builds a fast-paced router over the nodes with replication
// rf; mutate, when set, adjusts the config before the router starts.
func StartRouter(t *testing.T, nodes []*Node, rf int, mutate func(*cluster.Config)) *cluster.Router {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.Addr
	}
	cfg := cluster.Config{
		Nodes:        addrs,
		Replication:  rf,
		VNodes:       32,
		PingInterval: 100 * time.Millisecond,
		BackoffBase:  50 * time.Millisecond,
		BackoffMax:   time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := cluster.NewRouter(Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// Dialer routes every router→node connection through a fabric endpoint
// named LinkTo(addr), so a test can blackhole, script or partition one
// node's link without touching the others.
func Dialer(f *faultnet.Fabric) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		return f.Endpoint(LinkTo(addr)).Dial(nil)(addr, timeout)
	}
}

// LinkTo names the dial-side fabric endpoint of the link to one node.
func LinkTo(addr string) string { return "to:" + addr }

// RouterEvidence is what a failure carries beside its own message — the
// nodes the router believed alive, what its fan-outs had done, and the
// status page an operator would have read — so that one failure in many
// runs is evidence, not a prompt to run it again.
func RouterEvidence(r *cluster.Router) string {
	return fmt.Sprintf("live nodes %v\nfan-out counters %+v\n%s", r.LiveNodes(), r.FanoutCounters(), r.Status())
}

// WaitFor polls cond until it holds, failing the test past d.
func WaitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Render renders reg's exposition, failing the test if it breaks.
func Render(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.RenderText(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	return sb.String()
}

// Metric parses an exposition and returns the value of the named family's
// only sample.
func Metric(t *testing.T, text, name string) float64 {
	t.Helper()
	families, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, f := range families {
		if f.Name != name {
			continue
		}
		if len(f.Samples) != 1 {
			t.Fatalf("%s has %d samples, want 1", name, len(f.Samples))
		}
		return f.Samples[0].Value
	}
	t.Fatalf("family %s not rendered", name)
	return 0
}

// Sum adds the named single-sample family over the nodes' registries.
func Sum(t *testing.T, name string, nodes ...*Node) float64 {
	t.Helper()
	var sum float64
	for _, n := range nodes {
		sum += Metric(t, Render(t, n.Reg), name)
	}
	return sum
}
