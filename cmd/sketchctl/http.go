// HTTP client mode: the same publish/query/stats verbs, spoken to a
// sketchgate instead of a sketchd/sketchrouter.  Publishing still runs
// Algorithm 1 locally — the gateway's /v1/tenant endpoint supplies the
// mechanism parameters and the tenant's id-domain, the profile is sketched
// on this machine, and only the sketch key goes over HTTP — so the paper's
// privacy model survives the REST hop.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// httpClient wraps the gateway's JSON API with bearer authentication.
type httpClient struct {
	base   string
	apiKey string
	c      *http.Client
}

// gwError mirrors the gateway's typed error envelope.
type gwError struct {
	Error struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	} `json:"error"`
}

// do runs one JSON round trip, decoding typed errors into readable
// failures (the code is surfaced so scripts can branch on it).
func (h *httpClient) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, h.base+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+h.apiKey)
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var ge gwError
		if json.Unmarshal(raw, &ge) == nil && ge.Error.Code != "" {
			return fmt.Errorf("%s (%s, HTTP %d)", ge.Error.Message, ge.Error.Code, resp.StatusCode)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// tenantInfo is the gateway's GET /v1/tenant response.
type tenantInfo struct {
	Name        string  `json:"name"`
	DomainBits  uint8   `json:"domain_bits"`
	DomainTag   uint64  `json:"domain_tag"`
	P           float64 `json:"p"`
	Length      int     `json:"length"`
	RecordsUsed uint64  `json:"records_used"`
	MaxRecords  uint64  `json:"max_records"`
}

// newFlagSet builds a subcommand flag set that exits on parse errors.
func newFlagSet(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ExitOnError) }

// runHTTP dispatches sketchctl's verbs over the gateway's JSON API.
func runHTTP(base, apiKey string, h prf.BitSource, params sketch.Params, args []string) {
	if apiKey == "" {
		fail("-http mode requires -api-key")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	cli := &httpClient{base: strings.TrimRight(base, "/"), apiKey: apiKey, c: &http.Client{Timeout: 60 * time.Second}}

	switch args[0] {
	case "publish":
		fs := newFlagSet("publish")
		id := fs.Uint64("id", 0, "tenant-relative user id")
		profileStr := fs.String("profile", "", "private profile bits (sketched locally; never sent)")
		subsetStr := fs.String("subset", "", "attribute positions to sketch, e.g. 0,2,4")
		fs.Parse(args[1:])
		if *id == 0 || *profileStr == "" || *subsetStr == "" {
			fail("publish requires -id, -profile and -subset")
		}
		var info tenantInfo
		if err := cli.do("GET", "/v1/tenant", nil, &info); err != nil {
			fail("tenant lookup failed: %v", err)
		}
		if info.P != params.P || info.Length != params.Length {
			fail("gateway runs p=%v ℓ=%d but this client is configured for p=%v ℓ=%d; align -p/-users/-tau",
				info.P, info.Length, params.P, params.Length)
		}
		data, err := bitvec.FromString(*profileStr)
		if err != nil {
			fail("bad profile: %v", err)
		}
		sk, err := sketch.NewSketcher(h, params)
		if err != nil {
			fail("%v", err)
		}
		subset := parseSubset(*subsetStr)
		// Sketch under the tenant's effective (domained) id: the id that
		// enters the PRF tuple on publish must be the one queries filter on.
		eff, err := cluster.Domain{Bits: info.DomainBits, Tag: info.DomainTag}.ID(*id)
		if err != nil {
			fail("%v", err)
		}
		rng := stats.NewRNG(uint64(time.Now().UnixNano()))
		s, err := sk.Sketch(rng, bitvec.Profile{ID: eff, Data: data}, subset)
		if err != nil {
			fail("sketching failed: %v", err)
		}
		req := map[string]any{"records": []map[string]any{{
			"id":     *id,
			"subset": subset.Positions(),
			"sketch": map[string]any{"key": s.Key, "length": s.Length},
		}}}
		var resp struct {
			Published   int    `json:"published"`
			RecordsUsed uint64 `json:"records_used"`
		}
		if err := cli.do("POST", "/v1/records", req, &resp); err != nil {
			fail("publish failed: %v", err)
		}
		fmt.Printf("published %s for subset %s via gateway (tenant %s, %d records used)\n",
			s, subset, info.Name, resp.RecordsUsed)
	case "query":
		fs := newFlagSet("query")
		subsetStr := fs.String("subset", "", "sketched attribute positions, e.g. 0,2,4")
		valueStr := fs.String("value", "", "target value over the subset, e.g. 101")
		fs.Parse(args[1:])
		if *subsetStr == "" || *valueStr == "" {
			fail("query requires -subset and -value")
		}
		req := map[string]any{"subset": parseSubset(*subsetStr).Positions(), "value": *valueStr}
		var res struct {
			Fraction float64 `json:"fraction"`
			Raw      float64 `json:"raw"`
			Users    int     `json:"users"`
			Count    float64 `json:"count"`
		}
		if err := cli.do("POST", "/v1/query/conjunction", req, &res); err != nil {
			fail("query failed: %v", err)
		}
		fmt.Printf("estimated fraction %.4f (raw %.4f) over %d users; estimated count %.0f\n",
			res.Fraction, res.Raw, res.Users, res.Count)
	case "stats":
		var res struct {
			Tenant        string `json:"tenant"`
			RecordsUsed   uint64 `json:"records_used"`
			MaxRecords    uint64 `json:"max_records"`
			TenantRecords uint64 `json:"tenant_records"`
			Backend       string `json:"backend"`
		}
		if err := cli.do("GET", "/v1/stats", nil, &res); err != nil {
			fail("stats failed: %v", err)
		}
		fmt.Printf("tenant %s: %d records in domain, %d published here (quota %d)\n",
			res.Tenant, res.TenantRecords, res.RecordsUsed, res.MaxRecords)
		if res.Backend != "" {
			fmt.Print(res.Backend)
			if !strings.HasSuffix(res.Backend, "\n") {
				fmt.Println()
			}
		}
	case "ping":
		if err := cli.do("GET", "/healthz", nil, nil); err != nil {
			fail("gateway unhealthy: %v", err)
		}
		var info tenantInfo
		if err := cli.do("GET", "/v1/tenant", nil, &info); err != nil {
			fail("tenant lookup failed: %v", err)
		}
		fmt.Printf("gateway healthy; tenant %s, domain tag %#x over %d bits, p=%v ℓ=%d\n",
			info.Name, info.DomainTag, info.DomainBits, info.P, info.Length)
	case "metrics":
		runMetrics(base, apiKey, args[1:])
	default:
		fail("unknown -http subcommand %q (http mode supports publish, query, stats, ping, metrics)", args[0])
	}
}
