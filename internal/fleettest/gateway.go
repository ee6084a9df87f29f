package fleettest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/gateway"
)

// Gateway is the HTTP front door over a router, serving one tenant.
type Gateway struct {
	Tenant   *gateway.Tenant
	url, key string
}

// StartGateway serves a gateway over r whose keyring holds one tenant of
// the given name, unthrottled and unmetered.  Tenants of different names
// hold disjoint id domains, so two gateways over one router serve two
// tenants of one fleet.
func StartGateway(t *testing.T, r *cluster.Router, tenant string) *Gateway {
	t.Helper()
	key := tenant + "-fleettest-api-key"
	path := filepath.Join(t.TempDir(), "keys.json")
	body := fmt.Sprintf(`{"tenants": [{"name": %q, "key": %q, "rate_rps": 1e12, "rate_burst": 1e12}]}`, tenant, key)
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	ring, err := gateway.LoadKeyring(path, master())
	if err != nil {
		t.Fatal(err)
	}
	ten, ok := ring.Lookup(key)
	if !ok {
		t.Fatalf("tenant %q missing from its own keyring", tenant)
	}
	gw, err := gateway.New(gateway.Config{
		Backend: gateway.RouterBackend{R: r},
		Admin:   gateway.RouterBackend{R: r},
		Keyring: ring,
		Params:  Params(),
		Hash:    Source(),
		Seed:    7,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return &Gateway{Tenant: ten, url: srv.URL, key: key}
}

// Call POSTs one JSON request as the tenant and returns the status and
// the body.
func (g *Gateway) Call(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", g.url+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+g.key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}
