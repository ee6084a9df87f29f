package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/faultnet"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/wire"
)

// e2eNode is one in-process sketchd: an engine behind a real TCP server.
type e2eNode struct {
	addr string
	eng  *engine.Engine
	srv  *server.Server
}

// startE2ENodes brings up n loopback sketchd nodes.
func startE2ENodes(t *testing.T, n int) []*e2eNode {
	t.Helper()
	nodes := make([]*e2eNode, n)
	for i := range nodes {
		eng, err := engine.New(testSource(), testParams())
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &e2eNode{addr: addr, eng: eng, srv: srv}
		t.Cleanup(func() { srv.Close() })
	}
	return nodes
}

// countingProxy forwards TCP connections to a backend node, counting every
// client→backend frame by opcode.  The gateway's router only ever talks to
// proxy addresses, so the per-opcode counts are exactly the wire requests
// one HTTP call costs — the RTT-accounting instrument for the HTTP path.
type countingProxy struct {
	backend string
	addr    string
	ln      net.Listener

	mu     sync.Mutex
	counts map[byte]int
	conns  map[net.Conn]struct{}
}

func startCountingProxy(t *testing.T, backend string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{
		backend: backend,
		addr:    ln.Addr().String(),
		ln:      ln,
		counts:  make(map[byte]int),
		conns:   make(map[net.Conn]struct{}),
	}
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *countingProxy) count(msgType byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[msgType]
}

func (p *countingProxy) resetCounts() {
	p.mu.Lock()
	p.counts = make(map[byte]int)
	p.mu.Unlock()
}

// strayFrames counts the router→node frames seen since the last reset that
// are neither plan queries nor connection control (hello, ping): every
// query frame a router sends must be a TypePlanQuery.
func (p *countingProxy) strayFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for msgType, c := range p.counts {
		switch msgType {
		case wire.TypePlanQuery, wire.TypeHello, wire.TypePing:
		default:
			n += c
		}
	}
	return n
}

func (p *countingProxy) accept() {
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
		p.mu.Lock()
		p.conns[client] = struct{}{}
		p.conns[backend] = struct{}{}
		p.mu.Unlock()
		go func() {
			defer client.Close()
			defer backend.Close()
			for {
				msgType, payload, err := wire.ReadFrame(client)
				if err != nil {
					return
				}
				p.mu.Lock()
				p.counts[msgType]++
				p.mu.Unlock()
				if err := wire.WriteFrame(backend, msgType, payload); err != nil {
					return
				}
			}
		}()
		go func() {
			io.Copy(client, backend) //nolint:errcheck // closing either side ends the stream
			client.Close()
		}()
	}
}

// clusterHarness is the fleet-mode HTTP harness: three sketchd nodes
// behind frame-counting proxies, an RF=2 router, and the gateway on top.
type clusterHarness struct {
	*testGateway
	r       *cluster.Router
	nodes   []*e2eNode
	proxies []*countingProxy
}

func startClusterGateway(t *testing.T, keyringBody string, mutate func(*cluster.Config)) *clusterHarness {
	t.Helper()
	nodes := startE2ENodes(t, 3)
	proxies := make([]*countingProxy, len(nodes))
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		proxies[i] = startCountingProxy(t, n.addr)
		addrs[i] = proxies[i].addr
	}
	cfg := cluster.Config{
		Nodes:        addrs,
		Replication:  2,
		VNodes:       32,
		PingInterval: 100 * time.Millisecond,
		BackoffBase:  50 * time.Millisecond,
		BackoffMax:   time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := cluster.NewRouter(testSource(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	ring, err := LoadKeyring(writeKeyring(t, keyringBody), testMaster())
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Backend: RouterBackend{R: r},
		Admin:   RouterBackend{R: r},
		Keyring: ring,
		Params:  testParams(),
		Hash:    testSource(),
		Seed:    7,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return &clusterHarness{
		testGateway: &testGateway{gw: gw, srv: srv, ring: ring},
		r:           r,
		nodes:       nodes,
		proxies:     proxies,
	}
}

// publishFieldWorkload publishes, over HTTP, 8-bit profiles for n users
// across every subset the interval, combination and tree estimators need
// on the 4-bit field at offset 0: the conjunctive subset, the single-bit
// subsets and the non-degenerate prefixes.
func (h *clusterHarness) publishFieldWorkload(t *testing.T, apiKey string, n int) {
	t.Helper()
	subsets := [][]int{{0, 1, 2, 3}, {0}, {1}, {2}, {3}, {0, 1}, {0, 1, 2}}
	var recs []map[string]any
	for i := 0; i < n; i++ {
		profile := fmt.Sprintf("%08b", (i*37+11)%256)
		for _, sub := range subsets {
			recs = append(recs, map[string]any{"id": uint64(i + 1), "subset": sub, "profile": profile})
		}
	}
	status, apiErr, _ := h.call(t, "POST", "/v1/records", apiKey, map[string]any{"records": recs})
	if status != http.StatusOK {
		t.Fatalf("publish: HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
	}
}

// TestClusterHTTPPlanQueriesOneFanoutRTT is the gateway's RTT-accounting
// acceptance test: an HTTP interval query and an HTTP decision-tree query
// each cost exactly one planQuery frame per cluster node — one fan-out
// round trip — and zero legacy per-partial frames, despite the interval
// composing two boundary estimates and the tree walking multiple paths.
func TestClusterHTTPPlanQueriesOneFanoutRTT(t *testing.T) {
	h := startClusterGateway(t, defaultKeyring, nil)
	h.publishFieldWorkload(t, acmeKey, 30)

	calls := []struct {
		name string
		path string
		body map[string]any
	}{
		{"interval", "/v1/query/interval", map[string]any{
			"field": map[string]any{"offset": 0, "width": 4}, "lo": 3, "hi": 9}},
		{"tree", "/v1/query/tree", map[string]any{"tree": map[string]any{
			"attr": 0,
			"zero": map[string]any{"leaf": true, "accept": false},
			"one": map[string]any{
				"attr": 1,
				"zero": map[string]any{"leaf": true, "accept": true},
				"one":  map[string]any{"leaf": true, "accept": false},
			}}}},
	}
	for _, call := range calls {
		t.Run(call.name, func(t *testing.T) {
			for _, p := range h.proxies {
				p.resetCounts()
			}
			status, apiErr, _ := h.call(t, "POST", call.path, acmeKey, call.body)
			if status != http.StatusOK {
				t.Fatalf("query: HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
			}
			for i, p := range h.proxies {
				if got := p.count(wire.TypePlanQuery); got != 1 {
					t.Errorf("node %d saw %d plan-query frames, want exactly 1", i, got)
				}
				if got := p.strayFrames(); got != 0 {
					t.Errorf("node %d saw %d frames that are not plan queries, want 0", i, got)
				}
			}
		})
	}
}

// TestClusterHTTPBitIdenticalToBinaryPath: the same conjunction asked over
// HTTP and over the binary wire protocol (a cluster frontend, the path
// sketchctl takes) answers bit-identically.  With a single publishing
// tenant the domained HTTP view and the undomained binary view cover the
// same record set, so any arithmetic divergence in the JSON layer would
// surface as an exact-inequality failure here.
func TestClusterHTTPBitIdenticalToBinaryPath(t *testing.T) {
	h := startClusterGateway(t, defaultKeyring, nil)
	h.publishFieldWorkload(t, acmeKey, 30)

	var got estimateResponse
	status, apiErr, raw := h.call(t, "POST", "/v1/query/conjunction", acmeKey,
		map[string]any{"subset": []int{0, 1, 2, 3}, "value": "1010"})
	if status != http.StatusOK {
		t.Fatalf("HTTP query: %d (%s)", status, apiErr.Message)
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	fe := server.NewFrontend(h.r)
	feAddr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	cli, err := server.Dial(feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	want, err := h.r.Estimator().Fraction(cli, bitvec.Range(0, 4), bitvec.MustFromString("1010"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fraction != want.Fraction || got.Raw != want.Raw || got.Users != want.Users {
		t.Fatalf("HTTP answer %+v differs from the binary wire path %+v", got, want)
	}
	if want.Users != 30 {
		t.Fatalf("binary path saw %d users, want 30", want.Users)
	}
}

// TestClusterTenantDisjointness: in fleet mode, one tenant's records are
// invisible to another tenant's queries — before globex publishes anything
// its queries find no sketches at all, and afterwards each tenant's user
// count is exactly its own.
func TestClusterTenantDisjointness(t *testing.T) {
	h := startClusterGateway(t, defaultKeyring, nil)
	h.publishProfiles(t, acmeKey, 20, 8, []int{0, 2, 4})

	status, apiErr, _ := h.call(t, "POST", "/v1/query/fraction", globexKey,
		map[string]any{"subset": []int{0, 2, 4}, "value": "111"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("globex query over acme-only cluster: HTTP %d (%s), want 422", status, apiErr.Code)
	}

	h.publishProfiles(t, globexKey, 5, 5, []int{0, 2, 4})
	for _, tc := range []struct {
		key  string
		want int
	}{{acmeKey, 20}, {globexKey, 5}} {
		var got estimateResponse
		status, apiErr, raw := h.call(t, "POST", "/v1/query/fraction", tc.key,
			map[string]any{"subset": []int{0, 2, 4}, "value": "111"})
		if status != http.StatusOK {
			t.Fatalf("query: HTTP %d (%s)", status, apiErr.Message)
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Users != tc.want {
			t.Fatalf("tenant with key %q sees %d users, want exactly its own %d", tc.key, got.Users, tc.want)
		}
	}
}

// routerEvidence is what a test that gave up on the cluster reports: the
// router's live nodes, its fan-out counters and its status.
func routerEvidence(r *cluster.Router) string {
	return fmt.Sprintf("live nodes %v\nfan-out counters %+v\n%s", r.LiveNodes(), r.FanoutCounters(), r.Status())
}

// TestClusterGatewayChaos runs the HTTP path over a faultnet-degraded
// cluster: every router link injects seeded resets, stalls and
// corruptions.  Publishes and queries retry through typed 5xx answers;
// what must hold is that the gateway never answers 200 with a wrong
// result — the final fraction is bit-identical to a reference engine
// holding the same records, and the quota ledger matches the acknowledged
// batches despite give-backs on failed attempts.
func TestClusterGatewayChaos(t *testing.T) {
	fab := faultnet.NewFabric(0xC0FFEE)
	h := startClusterGateway(t, defaultKeyring, func(cfg *cluster.Config) {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			ep := fab.Endpoint("to:" + addr)
			ep.EnableChaos()
			return ep.Dial(nil)(addr, timeout)
		}
		cfg.DialTimeout = 300 * time.Millisecond
		cfg.RequestTimeout = 500 * time.Millisecond
		cfg.HedgeDelay = 100 * time.Millisecond
		cfg.BackoffMax = 500 * time.Millisecond
	})
	acme, ok := h.ring.Lookup(acmeKey)
	if !ok {
		t.Fatal("acme key missing")
	}

	// Sketch client-side with a deterministic RNG so a reference engine can
	// ingest byte-for-byte the same records the gateway publishes.
	sk, err := sketch.NewSketcher(testSource(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	sub := bitvec.MustSubset(0, 2, 4)
	const users, matching = 30, 12
	var recs []map[string]any
	var refPubs []sketch.Published
	for i := 0; i < users; i++ {
		profile := "00000"
		if i < matching {
			profile = "10101"
		}
		eff, err := acme.EffectiveID(uint64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		s, err := sk.Sketch(rng, bitvec.Profile{ID: bitvec.UserID(eff), Data: bitvec.MustFromString(profile)}, sub)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, map[string]any{
			"id": uint64(i + 1), "subset": []int{0, 2, 4},
			"sketch": map[string]any{"key": s.Key, "length": s.Length},
		})
		refPubs = append(refPubs, sketch.Published{ID: bitvec.UserID(eff), Subset: sub, S: s})
	}

	// Publish in small batches with bounded retries: replicated ingest is
	// idempotent per (user, subset) and the gateway gives quota back on a
	// failed batch, so retrying a 5xx converges.
	for start := 0; start < len(recs); start += 5 {
		end := start + 5
		if end > len(recs) {
			end = len(recs)
		}
		published, status, apiErr := false, 0, apiError{}
		for attempt := 0; attempt < 60 && !published; attempt++ {
			status, apiErr, _ = h.call(t, "POST", "/v1/records", acmeKey,
				map[string]any{"records": recs[start:end]})
			switch status {
			case http.StatusOK:
				published = true
			case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusTooManyRequests:
				time.Sleep(50 * time.Millisecond)
			default:
				t.Fatalf("publish batch %d: HTTP %d (%s: %s)", start/5, status, apiErr.Code, apiErr.Message)
			}
		}
		if !published {
			t.Fatalf("publish batch %d never succeeded under chaos; last attempt HTTP %d (%s)\n%s", start/5, status, apiErr.Code, routerEvidence(h.r))
		}
	}
	if used := acme.RecordsUsed(); used != users {
		t.Fatalf("quota ledger %d after give-backs, want %d", used, users)
	}

	ref, err := engine.New(testSource(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(refPubs); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Estimator().Fraction(EngineBackend{E: ref}.Source(acme.Domain),
		sub, bitvec.MustFromString("111"))
	if err != nil {
		t.Fatal(err)
	}

	answered, status, apiErr := false, 0, apiError{}
	for attempt := 0; attempt < 60 && !answered; attempt++ {
		var raw []byte
		status, apiErr, raw = h.call(t, "POST", "/v1/query/fraction", acmeKey,
			map[string]any{"subset": []int{0, 2, 4}, "value": "111"})
		switch status {
		case http.StatusOK:
			var got estimateResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.Fraction != want.Fraction || got.Raw != want.Raw || got.Users != want.Users {
				t.Fatalf("chaos answer %+v differs from reference %+v", got, want)
			}
			answered = true
		case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusTooManyRequests:
			time.Sleep(100 * time.Millisecond)
		default:
			t.Fatalf("query: HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
		}
	}
	if !answered {
		t.Fatalf("query never succeeded under chaos; last attempt HTTP %d (%s)\n%s", status, apiErr.Code, routerEvidence(h.r))
	}
}
