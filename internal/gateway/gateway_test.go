package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
)

const (
	testP      = 0.3
	testLength = 10
	acmeKey    = "acme-secret-key-0001"
	globexKey  = "globex-secret-key-01"
)

func testSource() *prf.Biased {
	return prf.NewBiased(testMaster(), prf.MustProb(testP))
}

func testParams() sketch.Params { return sketch.MustParams(testP, testLength) }

// testGateway is the single-node HTTP harness: an engine backend behind a
// real httptest server, with a two-tenant keyring.
type testGateway struct {
	gw   *Gateway
	srv  *httptest.Server
	eng  *engine.Engine
	ring *Keyring
}

// startGateway builds the harness; keyringBody and mutate tune the tenant
// set and the gateway config per test.
func startGateway(t *testing.T, keyringBody string, mutate func(*Config)) *testGateway {
	t.Helper()
	eng, err := engine.New(testSource(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	ring, err := LoadKeyring(writeKeyring(t, keyringBody), testMaster())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Backend: EngineBackend{E: eng},
		Keyring: ring,
		Params:  testParams(),
		Hash:    testSource(),
		Seed:    7,
		Logf:    t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return &testGateway{gw: gw, srv: srv, eng: eng, ring: ring}
}

// call runs one JSON request, returning status, decoded error (if any)
// and the raw body.
func (tg *testGateway) call(t *testing.T, method, path, apiKey string, body any) (int, apiError, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, tg.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var envelope errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Fatalf("non-200 body is not the typed error envelope: %s", raw)
		}
	}
	return resp.StatusCode, envelope.Error, raw
}

// publishProfiles publishes n five-bit profiles for a tenant over subset;
// profiles alternate between match (the all-ones value) and non-match.
func (tg *testGateway) publishProfiles(t *testing.T, apiKey string, n, matching int, subset []int) {
	t.Helper()
	recs := make([]map[string]any, 0, n)
	for i := 0; i < n; i++ {
		profile := "00000"
		if i < matching {
			profile = "10101"
		}
		recs = append(recs, map[string]any{"id": uint64(i + 1), "subset": subset, "profile": profile})
	}
	status, apiErr, _ := tg.call(t, "POST", "/v1/records", apiKey, map[string]any{"records": recs})
	if status != http.StatusOK {
		t.Fatalf("publish: HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
	}
}

const defaultKeyring = `{
  "tenants": [
    {"name": "acme", "key": "` + acmeKey + `", "rate_rps": 5000, "rate_burst": 5000},
    {"name": "globex", "key": "` + globexKey + `", "rate_rps": 5000, "rate_burst": 5000, "admin": true}
  ]
}`

// TestHTTPQueryMatchesDirectEstimator: the HTTP fraction answer is
// bit-identical to calling the estimator directly over the same
// domain-restricted source — the JSON layer adds no arithmetic.
func TestHTTPQueryMatchesDirectEstimator(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	tg.publishProfiles(t, acmeKey, 40, 15, []int{0, 2, 4})

	var got estimateResponse
	status, apiErr, raw := tg.call(t, "POST", "/v1/query/fraction", acmeKey,
		map[string]any{"subset": []int{0, 2, 4}, "value": "111"})
	if status != http.StatusOK {
		t.Fatalf("query: HTTP %d (%s)", status, apiErr.Message)
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	acme, _ := tg.ring.Lookup(acmeKey)
	src := EngineBackend{E: tg.eng}.Source(acme.Domain)
	want, err := tg.eng.Estimator().Fraction(src,
		bitvec.MustSubset(0, 2, 4), bitvec.MustFromString("111"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fraction != want.Fraction || got.Raw != want.Raw || got.Users != want.Users {
		t.Fatalf("HTTP answer %+v differs from direct estimator %+v", got, want)
	}
	if want.Users != 40 {
		t.Fatalf("domain source saw %d users, want 40", want.Users)
	}
}

// TestTenantIsolation: two tenants publish through one gateway into one
// engine; neither's queries, stats or record counts can see the other's
// sketches.  This is the disjoint-PRF-domain guarantee, asserted
// end-to-end.
func TestTenantIsolation(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	subset := []int{0, 2, 4}
	tg.publishProfiles(t, acmeKey, 30, 30, subset)

	// Globex has published nothing: a query over acme's subset must see
	// zero of acme's 30 records — not a smaller estimate, none at all.
	status, apiErr, _ := tg.call(t, "POST", "/v1/query/fraction", globexKey,
		map[string]any{"subset": subset, "value": "111"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("globex query over acme's data: HTTP %d (%s), want 422 no-sketches", status, apiErr.Code)
	}

	// Globex publishes its own records under the SAME tenant-relative ids
	// and subset; each tenant still counts exactly its own.
	tg.publishProfiles(t, globexKey, 10, 0, subset)
	for _, tc := range []struct {
		key   string
		users int
	}{{acmeKey, 30}, {globexKey, 10}} {
		var got estimateResponse
		status, apiErr, raw := tg.call(t, "POST", "/v1/query/fraction", tc.key,
			map[string]any{"subset": subset, "value": "111"})
		if status != http.StatusOK {
			t.Fatalf("query: HTTP %d (%s)", status, apiErr.Message)
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Users != tc.users {
			t.Fatalf("tenant %s sees %d users, want exactly its own %d", tc.key, got.Users, tc.users)
		}
	}

	// The engine really holds both tenants' records in one table.
	if n := tg.eng.Sketches(); n != 40 {
		t.Fatalf("engine holds %d records, want 40", n)
	}
	// And the stats endpoint agrees per tenant.
	var st statsResponse
	_, _, raw := tg.call(t, "GET", "/v1/stats", globexKey, nil)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.TenantRecords != 10 {
		t.Fatalf("globex stats count %d records, want 10", st.TenantRecords)
	}
}

// TestAuthFailuresTyped: missing, malformed and unknown keys all answer
// the typed 401; admin routes answer 403 for non-admin tenants.
func TestAuthFailuresTyped(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	for _, key := range []string{"", "wrong-key-entirely"} {
		status, apiErr, _ := tg.call(t, "GET", "/v1/tenant", key, nil)
		if status != http.StatusUnauthorized || apiErr.Code != codeUnauthorized {
			t.Fatalf("key %q: HTTP %d code %q, want 401 %s", key, status, apiErr.Code, codeUnauthorized)
		}
	}
	status, apiErr, _ := tg.call(t, "GET", "/v1/admin/rebalance-status", acmeKey, nil)
	if status != http.StatusForbidden || apiErr.Code != codeForbidden {
		t.Fatalf("non-admin on admin route: HTTP %d code %q, want 403 %s", status, apiErr.Code, codeForbidden)
	}
}

// TestRateLimit429Isolation: the regression the issue demands — a tenant
// that saturates its token bucket gets typed 429s with Retry-After while
// the other tenant's requests keep succeeding untouched.
func TestRateLimit429Isolation(t *testing.T) {
	ring := `{
	  "tenants": [
	    {"name": "acme", "key": "` + acmeKey + `", "rate_rps": 0.001, "rate_burst": 3},
	    {"name": "globex", "key": "` + globexKey + `", "rate_rps": 5000, "rate_burst": 5000}
	  ]
	}`
	tg := startGateway(t, ring, nil)
	shed := 0
	for i := 0; i < 10; i++ {
		status, apiErr, _ := tg.call(t, "GET", "/v1/tenant", acmeKey, nil)
		if status == http.StatusTooManyRequests {
			shed++
			if apiErr.Code != codeRateLimited {
				t.Fatalf("429 code %q, want %s", apiErr.Code, codeRateLimited)
			}
			if apiErr.RetryAfterMS <= 0 {
				t.Fatal("429 without a retry_after_ms hint")
			}
		}
	}
	if shed != 7 {
		t.Fatalf("%d of 10 requests shed, want exactly 7 (burst 3)", shed)
	}
	// The other tenant is untouched throughout.
	for i := 0; i < 20; i++ {
		if status, apiErr, _ := tg.call(t, "GET", "/v1/tenant", globexKey, nil); status != http.StatusOK {
			t.Fatalf("innocent tenant shed: HTTP %d (%s)", status, apiErr.Code)
		}
	}
	// And a Retry-After header rode the refusals.
	req, _ := http.NewRequest("GET", tg.srv.URL+"/v1/tenant", nil)
	req.Header.Set("Authorization", "Bearer "+acmeKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("HTTP %d with Retry-After %q, want 429 with a header", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestQuotaExceededTyped: a batch past the record quota is refused whole
// with the typed quota code, under-quota publishes then still fit, and a
// batch that fails validation returns its reservation.
func TestQuotaExceededTyped(t *testing.T) {
	ring := `{
	  "tenants": [
	    {"name": "acme", "key": "` + acmeKey + `", "rate_rps": 5000, "rate_burst": 5000, "max_records": 10}
	  ]
	}`
	tg := startGateway(t, ring, nil)
	mkBatch := func(n int, profile string) map[string]any {
		recs := make([]map[string]any, n)
		for i := range recs {
			recs[i] = map[string]any{"id": uint64(i + 1), "subset": []int{0, 1}, "profile": profile}
		}
		return map[string]any{"records": recs}
	}
	status, apiErr, _ := tg.call(t, "POST", "/v1/records", acmeKey, mkBatch(11, "11"))
	if status != http.StatusTooManyRequests || apiErr.Code != codeQuotaExceeded {
		t.Fatalf("over-quota batch: HTTP %d code %q, want 429 %s", status, apiErr.Code, codeQuotaExceeded)
	}
	// A malformed batch reserves and returns quota.
	if status, _, _ := tg.call(t, "POST", "/v1/records", acmeKey, mkBatch(8, "not-bits")); status != http.StatusBadRequest {
		t.Fatalf("malformed batch: HTTP %d, want 400", status)
	}
	if status, apiErr, _ := tg.call(t, "POST", "/v1/records", acmeKey, mkBatch(10, "11")); status != http.StatusOK {
		t.Fatalf("exactly-fitting batch after giveback: HTTP %d (%s)", status, apiErr.Message)
	}
	if status, apiErr, _ := tg.call(t, "POST", "/v1/records", acmeKey, mkBatch(1, "11")); status != http.StatusTooManyRequests || apiErr.Code != codeQuotaExceeded {
		t.Fatalf("at-cap publish: HTTP %d code %q, want 429 quota", status, apiErr.Code)
	}
}

// gatedBackend wraps a Backend, parking its sources' TotalRecords calls on
// a gate so a test can hold requests in flight deliberately.
type gatedBackend struct {
	Backend
	gate chan struct{}
}

func (b gatedBackend) Source(d cluster.Domain) query.PartialSource {
	return gatedSource{b.Backend.Source(d), b.gate}
}

type gatedSource struct {
	query.PartialSource
	gate chan struct{}
}

func (s gatedSource) TotalRecords() (uint64, error) {
	<-s.gate
	return s.PartialSource.TotalRecords()
}

// TestOverloadShedsLoudlyHealthStaysLive: at the in-flight cap, API
// requests shed with the typed 503 — while /healthz and /metrics, mounted
// outside the cap, keep answering.  This is the loud-load-shedding
// acceptance test.
func TestOverloadShedsLoudlyHealthStaysLive(t *testing.T) {
	gate := make(chan struct{})
	tg := startGateway(t, defaultKeyring, func(cfg *Config) {
		cfg.Backend = gatedBackend{Backend: cfg.Backend, gate: gate}
		cfg.MaxInFlight = 1
	})

	// Park one request inside the backend to fill the cap.
	done := make(chan struct{})
	go func() {
		defer close(done)
		status, _, _ := tg.call(t, "GET", "/v1/stats", acmeKey, nil)
		if status != http.StatusOK {
			t.Errorf("parked request finished HTTP %d", status)
		}
	}()
	// Wait until the parked request holds the only slot.
	for tg.gw.flight.cur.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	status, apiErr, _ := tg.call(t, "GET", "/v1/tenant", acmeKey, nil)
	if status != http.StatusServiceUnavailable || apiErr.Code != codeOverloaded {
		t.Fatalf("at-cap request: HTTP %d code %q, want 503 %s", status, apiErr.Code, codeOverloaded)
	}

	// Health and metrics live outside the cap.
	if status, _, _ := tg.call(t, "GET", "/healthz", "", nil); status != http.StatusOK {
		t.Fatalf("healthz HTTP %d while saturated, want 200", status)
	}
	_, _, raw := tg.call(t, "GET", "/metrics", "", nil)
	if !strings.Contains(string(raw), "gateway_shed_overload_total 1") {
		t.Fatalf("metrics do not count the shed request:\n%s", raw)
	}
	if !strings.Contains(string(raw), "gateway_inflight 1") {
		t.Fatalf("metrics do not show the parked request:\n%s", raw)
	}

	close(gate)
	<-done
}

// countingBackend wraps a Backend, counting its sources' Execute calls.
type countingBackend struct {
	Backend
	executes *atomic.Int64
}

func (b countingBackend) Source(d cluster.Domain) query.PartialSource {
	return countingSource{b.Backend.Source(d), b.executes}
}

type countingSource struct {
	query.PartialSource
	executes *atomic.Int64
}

func (s countingSource) Execute(p *query.Plan) (*query.Results, error) {
	s.executes.Add(1)
	return s.PartialSource.Execute(p)
}

// TestQueryEndpointsTable: every estimator endpoint answers 200 on a
// well-formed body, with exactly one Execute on the tenant's source, and
// its answer is field for field the query package's own entry point over
// the same source; unknown kinds 404 and malformed bodies 400, all typed
// and none executed.
func TestQueryEndpointsTable(t *testing.T) {
	var executes atomic.Int64
	tg := startGateway(t, defaultKeyring, func(cfg *Config) {
		cfg.Backend = countingBackend{Backend: cfg.Backend, executes: &executes}
	})
	subset := []int{0, 1, 2, 3}
	// Sketch the field's bit and prefix subsets so interval/mean/tree
	// queries have what they need: publish over every needed subset.
	var recs []map[string]any
	id := uint64(1)
	for i := 0; i < 25; i++ {
		profile := fmt.Sprintf("%04b0", i%16)
		for _, sub := range [][]int{subset, {0}, {1}, {2}, {3}, {0, 1}, {0, 1, 2}} {
			recs = append(recs, map[string]any{"id": id, "subset": sub, "profile": profile})
		}
		id++
	}
	status, apiErr, _ := tg.call(t, "POST", "/v1/records", acmeKey, map[string]any{"records": recs})
	if status != http.StatusOK {
		t.Fatalf("publish: HTTP %d (%s)", status, apiErr.Message)
	}

	acme, _ := tg.ring.Lookup(acmeKey)
	src := EngineBackend{E: tg.eng}.Source(acme.Domain)
	est := tg.eng.Estimator()
	asEstimate := func(e query.Estimate, err error) (any, error) { return toEstimate(e), err }
	asNumeric := func(n query.NumericEstimate, err error) (any, error) { return toNumeric(n), err }
	sub, v := bitvec.MustSubset(subset...), bitvec.MustFromString("0110")
	pair := []query.SubQuery{
		{Subset: bitvec.MustSubset(0), Value: bitvec.MustFromString("1")},
		{Subset: bitvec.MustSubset(1), Value: bitvec.MustFromString("1")},
	}
	f := bitvec.MustIntField(0, 4)
	decision := query.Node(0, query.Leaf(false), query.Node(1, query.Leaf(true), query.Leaf(false)))

	field := map[string]any{"offset": 0, "width": 4}
	cases := []struct {
		kind string
		body map[string]any
		want func() (any, error)
	}{
		{"fraction", map[string]any{"subset": subset, "value": "0110"},
			func() (any, error) { return asEstimate(est.Fraction(src, sub, v)) }},
		{"conjunction", map[string]any{"subset": subset, "value": "0110"},
			func() (any, error) { return asEstimate(est.ConjunctionFraction(src, bitvec.ConjunctionOf(sub, v))) }},
		{"union", map[string]any{"subqueries": []map[string]any{{"subset": []int{0}, "value": "1"}, {"subset": []int{1}, "value": "1"}}},
			func() (any, error) { return asEstimate(est.UnionConjunction(src, pair)) }},
		{"none-of", map[string]any{"subqueries": []map[string]any{{"subset": []int{0}, "value": "1"}}},
			func() (any, error) { return asEstimate(est.NoneOf(src, pair[:1])) }},
		{"exactly-of-k", map[string]any{"subqueries": []map[string]any{{"subset": []int{0}, "value": "1"}, {"subset": []int{1}, "value": "1"}}, "l": 1},
			func() (any, error) { return asEstimate(est.ExactlyOfK(src, pair, 1)) }},
		{"at-least-of-k", map[string]any{"subqueries": []map[string]any{{"subset": []int{0}, "value": "1"}, {"subset": []int{1}, "value": "1"}}, "l": 1},
			func() (any, error) { return asEstimate(est.AtLeastOfK(src, pair, 1)) }},
		{"field-mean", map[string]any{"field": field},
			func() (any, error) { return asNumeric(est.FieldMean(src, f)) }},
		{"field-sum", map[string]any{"field": field},
			func() (any, error) { return asNumeric(est.FieldSum(src, f)) }},
		{"field-less-than", map[string]any{"field": field, "c": 9},
			func() (any, error) { return asNumeric(est.FieldLessThan(src, f, 9)) }},
		{"field-at-most", map[string]any{"field": field, "c": 9},
			func() (any, error) { return asNumeric(est.FieldAtMost(src, f, 9)) }},
		{"interval", map[string]any{"field": field, "lo": 3, "hi": 11},
			func() (any, error) {
				hi, err := est.FieldAtMost(src, f, 11)
				if err != nil {
					return nil, err
				}
				lo, err := est.FieldLessThan(src, f, 3)
				hi.Value -= lo.Value
				hi.Queries += lo.Queries
				return asNumeric(hi, err)
			}},
		{"tree", map[string]any{"tree": map[string]any{
			"attr": 0,
			"zero": map[string]any{"leaf": true, "accept": false},
			"one": map[string]any{
				"attr": 1,
				"zero": map[string]any{"leaf": true, "accept": true},
				"one":  map[string]any{"leaf": true, "accept": false},
			},
		}}, func() (any, error) { return asNumeric(est.DecisionTreeFraction(src, decision)) }},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			before := executes.Load()
			status, apiErr, raw := tg.call(t, "POST", "/v1/query/"+tc.kind, acmeKey, tc.body)
			if status != http.StatusOK {
				t.Fatalf("HTTP %d (%s: %s)", status, apiErr.Code, apiErr.Message)
			}
			if n := executes.Load() - before; n != 1 {
				t.Fatalf("request executed %d plans on its source, want exactly 1", n)
			}
			want, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(want))
			if err := json.Unmarshal(raw, got.Interface()); err != nil {
				t.Fatalf("answer %s does not decode as %T: %v", raw, want, err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), want) {
				t.Fatalf("answer %s differs from the query package's %+v", raw, want)
			}
		})
	}

	before := executes.Load()
	const unknownKind = `unknown estimator "no-such-kind"; known kinds: at-least-of-k, conjunction, exactly-of-k, field-at-most, ` +
		`field-less-than, field-mean, field-sum, fraction, interval, none-of, tree, union`
	if status, apiErr, _ := tg.call(t, "POST", "/v1/query/no-such-kind", acmeKey, map[string]any{}); status != http.StatusNotFound || apiErr.Code != codeNotFound || apiErr.Message != unknownKind {
		t.Fatalf("unknown kind: HTTP %d code %q message %q, want 404 %q", status, apiErr.Code, apiErr.Message, unknownKind)
	}
	if status, apiErr, _ := tg.call(t, "POST", "/v1/query/fraction", acmeKey, map[string]any{"subset": []int{0}, "value": "101"}); status != http.StatusBadRequest || apiErr.Code != codeBadRequest {
		t.Fatalf("shape mismatch: HTTP %d code %q, want 400 bad_request", status, apiErr.Code)
	}
	if status, _, _ := tg.call(t, "POST", "/v1/query/interval", acmeKey, map[string]any{"field": field, "lo": 9, "hi": 3}); status != http.StatusBadRequest {
		t.Fatalf("inverted interval: HTTP %d, want 400", status)
	}
	if n := executes.Load() - before; n != 0 {
		t.Fatalf("refused requests executed %d plans, want 0", n)
	}
}

// TestQueryRefusesFieldB: field_b is no key of any query body, so a client
// asking field-mean for an inner product is refused like any unknown key
// instead of being answered the mean of the first field alone.
func TestQueryRefusesFieldB(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	tg.publishProfiles(t, acmeKey, 10, 5, []int{0})
	field := map[string]any{"offset": 0, "width": 1}
	status, apiErr, _ := tg.call(t, "POST", "/v1/query/field-mean", acmeKey, map[string]any{"field": field, "field_b": field})
	if status != http.StatusBadRequest || apiErr.Code != codeBadRequest || !strings.Contains(apiErr.Message, `"field_b"`) {
		t.Fatalf("field_b: HTTP %d code %q message %q, want 400 bad_request naming field_b", status, apiErr.Code, apiErr.Message)
	}
}

// TestConcurrentMultiTenantRace: both tenants publish and query through
// one gateway concurrently.  Run with -race: this is the data-race gate
// over the keyring, limiter, quota, metrics and engine paths.
func TestConcurrentMultiTenantRace(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	subset := []int{0, 2, 4}
	var wg sync.WaitGroup
	for w, key := range []string{acmeKey, globexKey} {
		wg.Add(1)
		go func(w int, key string) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				rec := map[string]any{"id": uint64(w*1000 + i + 1), "subset": subset, "profile": "10101"}
				status, apiErr, _ := tg.call(t, "POST", "/v1/records", key, map[string]any{"records": []map[string]any{rec}})
				if status != http.StatusOK {
					t.Errorf("publish: HTTP %d (%s)", status, apiErr.Message)
					return
				}
				status, _, _ = tg.call(t, "POST", "/v1/query/fraction", key, map[string]any{"subset": subset, "value": "111"})
				if status != http.StatusOK {
					t.Errorf("query: HTTP %d", status)
					return
				}
			}
		}(w, key)
	}
	// A third goroutine rotates the keyring underneath them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := tg.ring.Reload(); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	var a, g estimateResponse
	_, _, raw := tg.call(t, "POST", "/v1/query/fraction", acmeKey, map[string]any{"subset": subset, "value": "111"})
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	_, _, raw = tg.call(t, "POST", "/v1/query/fraction", globexKey, map[string]any{"subset": subset, "value": "111"})
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if a.Users != 15 || g.Users != 15 {
		t.Fatalf("tenants see %d/%d users, want 15 each", a.Users, g.Users)
	}
}

// TestAdminReloadEndpoint: an admin key reloads the keyring over HTTP; a
// non-admin key cannot.
func TestAdminReloadEndpoint(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	if status, _, _ := tg.call(t, "POST", "/v1/admin/reload-keys", globexKey, map[string]any{}); status != http.StatusOK {
		t.Fatalf("admin reload: HTTP %d, want 200", status)
	}
	if status, _, _ := tg.call(t, "POST", "/v1/admin/reload-keys", acmeKey, map[string]any{}); status != http.StatusForbidden {
		t.Fatalf("non-admin reload: HTTP %d, want 403", status)
	}
	// Single-node mode has no membership backend: typed 404.
	if status, apiErr, _ := tg.call(t, "GET", "/v1/admin/rebalance-status", globexKey, nil); status != http.StatusNotFound || apiErr.Code != codeNotFound {
		t.Fatalf("membership in single-node mode: HTTP %d code %q, want 404", status, apiErr.Code)
	}
}

// TestPublishSketchDirect: a pre-computed sketch publishes without profile
// bits, and a wrong-length sketch is refused — the deployment's ℓ is law.
func TestPublishSketchDirect(t *testing.T) {
	tg := startGateway(t, defaultKeyring, nil)
	good := map[string]any{"records": []map[string]any{{
		"id": 1, "subset": []int{0, 1}, "sketch": map[string]any{"key": 5, "length": testLength},
	}}}
	if status, apiErr, _ := tg.call(t, "POST", "/v1/records", acmeKey, good); status != http.StatusOK {
		t.Fatalf("sketch publish: HTTP %d (%s)", status, apiErr.Message)
	}
	bad := map[string]any{"records": []map[string]any{{
		"id": 2, "subset": []int{0, 1}, "sketch": map[string]any{"key": 5, "length": 4},
	}}}
	if status, _, _ := tg.call(t, "POST", "/v1/records", acmeKey, bad); status != http.StatusBadRequest {
		t.Fatalf("wrong-ℓ sketch: HTTP %d, want 400", status)
	}
	both := map[string]any{"records": []map[string]any{{
		"id": 3, "subset": []int{0, 1}, "profile": "11", "sketch": map[string]any{"key": 5, "length": testLength},
	}}}
	if status, _, _ := tg.call(t, "POST", "/v1/records", acmeKey, both); status != http.StatusBadRequest {
		t.Fatalf("profile+sketch record: HTTP %d, want 400", status)
	}
}
