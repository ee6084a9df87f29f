package gateway_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/faultnet"
	"sketchprivacy/internal/fleettest"
	"sketchprivacy/internal/gateway"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/wire"
)

// estimate is the part of a fraction answer these tests compare.
type estimate struct {
	Fraction float64 `json:"fraction"`
	Raw      float64 `json:"raw"`
	Users    int     `json:"users"`
}

// apiError is the typed error every non-200 reply carries.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// call runs one JSON request as g's tenant, returning the status, the
// decoded error of a non-200 reply and the raw body.
func call(t *testing.T, g *fleettest.Gateway, path string, body any) (int, apiError, []byte) {
	t.Helper()
	status, raw := g.Call(t, path, body)
	var envelope struct {
		Error apiError `json:"error"`
	}
	if status != http.StatusOK {
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Fatalf("non-200 body is not the typed error envelope: %s", raw)
		}
	}
	return status, envelope.Error, raw
}

// publishProfiles publishes n five-bit profiles over subset; the first
// matching hold the all-ones value.
func publishProfiles(t *testing.T, g *fleettest.Gateway, n, matching int, subset []int) {
	t.Helper()
	recs := make([]map[string]any, 0, n)
	for i := 0; i < n; i++ {
		profile := "00000"
		if i < matching {
			profile = "10101"
		}
		recs = append(recs, map[string]any{"id": uint64(i + 1), "subset": subset, "profile": profile})
	}
	if status, apiErr, _ := call(t, g, "/v1/records", map[string]any{"records": recs}); status != http.StatusOK {
		t.Fatalf("publish: HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
	}
}

// publishFieldWorkload publishes, over HTTP, 8-bit profiles for n users
// across every subset the interval, combination and tree estimators need
// on the 4-bit field at offset 0: the conjunctive subset, the single-bit
// subsets and the non-degenerate prefixes.
func publishFieldWorkload(t *testing.T, g *fleettest.Gateway, n int) {
	t.Helper()
	subsets := [][]int{{0, 1, 2, 3}, {0}, {1}, {2}, {3}, {0, 1}, {0, 1, 2}}
	var recs []map[string]any
	for i := 0; i < n; i++ {
		profile := fmt.Sprintf("%08b", (i*37+11)%256)
		for _, sub := range subsets {
			recs = append(recs, map[string]any{"id": uint64(i + 1), "subset": sub, "profile": profile})
		}
	}
	if status, apiErr, _ := call(t, g, "/v1/records", map[string]any{"records": recs}); status != http.StatusOK {
		t.Fatalf("publish: HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
	}
}

// TestClusterHTTPPlanQueriesOneFanoutRTT is the gateway's RTT-accounting
// acceptance test: an HTTP interval query and an HTTP decision-tree query
// each cost exactly one planQuery frame per cluster node — one fan-out
// round trip — and zero legacy per-partial frames, despite the interval
// composing two boundary estimates and the tree walking multiple paths.
func TestClusterHTTPPlanQueriesOneFanoutRTT(t *testing.T) {
	nodes := fleettest.StartNodes(t, 3)
	fleettest.Proxied(t, nodes...)
	g := fleettest.StartGateway(t, fleettest.StartRouter(t, nodes, 2, nil), "acme")
	publishFieldWorkload(t, g, 30)

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
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range nodes {
				n.Proxy.Reset()
			}
			status, apiErr, _ := call(t, g, c.path, c.body)
			if status != http.StatusOK {
				t.Fatalf("query: HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
			}
			for i, n := range nodes {
				if got := n.Proxy.Requests()[wire.TypePlanQuery]; got != 1 {
					t.Errorf("node %d saw %d plan-query frames, want exactly 1", i, got)
				}
				if got := n.Proxy.StrayFrames(); got != 0 {
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
	nodes := fleettest.StartNodes(t, 3)
	fleettest.Proxied(t, nodes...)
	r := fleettest.StartRouter(t, nodes, 2, nil)
	g := fleettest.StartGateway(t, r, "acme")
	publishFieldWorkload(t, g, 30)

	var got estimate
	status, apiErr, raw := call(t, g, "/v1/query/conjunction",
		map[string]any{"subset": []int{0, 1, 2, 3}, "value": "1010"})
	if status != http.StatusOK {
		t.Fatalf("HTTP query: %d (%s)", status, apiErr.Message)
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	fe := server.NewFrontend(r)
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
	want, err := r.Estimator().Fraction(cli, bitvec.Range(0, 4), bitvec.MustFromString("1010"))
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
	nodes := fleettest.StartNodes(t, 3)
	fleettest.Proxied(t, nodes...)
	r := fleettest.StartRouter(t, nodes, 2, nil)
	acme, globex := fleettest.StartGateway(t, r, "acme"), fleettest.StartGateway(t, r, "globex")
	publishProfiles(t, acme, 20, 8, []int{0, 2, 4})

	status, apiErr, _ := call(t, globex, "/v1/query/fraction",
		map[string]any{"subset": []int{0, 2, 4}, "value": "111"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("globex query over acme-only cluster: HTTP %d (%s), want 422", status, apiErr.Code)
	}

	publishProfiles(t, globex, 5, 5, []int{0, 2, 4})
	for _, tc := range []struct {
		g    *fleettest.Gateway
		want int
	}{{acme, 20}, {globex, 5}} {
		var got estimate
		status, apiErr, raw := call(t, tc.g, "/v1/query/fraction",
			map[string]any{"subset": []int{0, 2, 4}, "value": "111"})
		if status != http.StatusOK {
			t.Fatalf("query: HTTP %d (%s)", status, apiErr.Message)
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Users != tc.want {
			t.Fatalf("tenant %q sees %d users, want exactly its own %d", tc.g.Tenant.Name, got.Users, tc.want)
		}
	}
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
	nodes := fleettest.StartNodes(t, 3)
	fleettest.Proxied(t, nodes...)
	for _, n := range nodes {
		fab.Endpoint(fleettest.LinkTo(n.Addr)).EnableChaos()
	}
	r := fleettest.StartRouter(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.Dial = fleettest.Dialer(fab)
		cfg.DialTimeout = 300 * time.Millisecond
		cfg.RequestTimeout = 500 * time.Millisecond
		cfg.HedgeDelay = 100 * time.Millisecond
		cfg.BackoffMax = 500 * time.Millisecond
	})
	g := fleettest.StartGateway(t, r, "acme")
	acme := g.Tenant

	// Sketch client-side with a deterministic RNG so a reference engine can
	// ingest byte-for-byte the same records the gateway publishes.
	sk, err := sketch.NewSketcher(fleettest.Source(), fleettest.Params())
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
			status, apiErr, _ = call(t, g, "/v1/records", map[string]any{"records": recs[start:end]})
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
			t.Fatalf("publish batch %d never succeeded under chaos; last attempt HTTP %d (%s)\n%s", start/5, status, apiErr.Code, fleettest.RouterEvidence(r))
		}
	}
	if used := acme.RecordsUsed(); used != users {
		t.Fatalf("quota ledger %d after give-backs, want %d", used, users)
	}

	ref, err := engine.New(fleettest.Source(), fleettest.Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(refPubs); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Estimator().Fraction(gateway.EngineBackend{E: ref}.Source(acme.Domain),
		sub, bitvec.MustFromString("111"))
	if err != nil {
		t.Fatal(err)
	}

	answered, status, apiErr := false, 0, apiError{}
	for attempt := 0; attempt < 60 && !answered; attempt++ {
		var raw []byte
		status, apiErr, raw = call(t, g, "/v1/query/fraction",
			map[string]any{"subset": []int{0, 2, 4}, "value": "111"})
		switch status {
		case http.StatusOK:
			var got estimate
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
		t.Fatalf("query never succeeded under chaos; last attempt HTTP %d (%s)\n%s", status, apiErr.Code, fleettest.RouterEvidence(r))
	}
}
