// Command sketchgate is the cluster's HTTP/JSON front door: a multi-tenant
// gateway that lets curl and ordinary HTTP clients publish sketches and
// run every estimator against a sketchd fleet, without speaking the binary
// wire protocol.
//
// Usage:
//
//	# fleet mode: front a cluster of sketchd nodes
//	sketchgate -addr 127.0.0.1:8080 \
//	        -nodes 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	        -keyring keys.json -p 0.3
//
//	# single-node mode: an in-process engine, no cluster
//	sketchgate -addr 127.0.0.1:8080 -single -keyring keys.json
//
// The keyring file maps API keys to tenants:
//
//	{"domain_bits": 24,
//	 "tenants": [
//	   {"name": "acme", "key": "acme-secret-key-1", "rate_rps": 100,
//	    "max_records": 100000},
//	   {"name": "ops",  "key": "ops-secret-key-22", "admin": true}]}
//
// Each tenant is assigned a disjoint slice of the user-id space (a
// high-bit prefix derived from the generator key), so tenants' sketches
// live in cryptographically disjoint PRF domains: no tenant's query can
// count another tenant's records.  SIGHUP — or POST /v1/admin/reload-keys
// with an admin key — re-reads the keyring, so keys rotate without a
// restart and without resetting rate or quota state.
//
// Endpoints: POST /v1/records (batched publish), POST /v1/query/{kind}
// (fraction, conjunction, union, none-of, exactly-of-k, at-least-of-k,
// field-mean, field-sum, field-less-than, field-at-most, interval, tree —
// each one plan fan-out round trip), GET /v1/tenant, GET /v1/stats, the
// admin membership endpoints, GET /healthz and GET /metrics
// (Prometheus text, including the router's fan-out robustness counters).
//
// Overload is shed loudly: per-tenant token buckets and record quotas
// answer typed 429s, the -max-inflight cap answers typed 503s, and
// /healthz and /metrics stay outside the cap so a saturated gateway
// remains observable.
//
// The -p, -users, -tau and -keyhex flags must match the fleet's
// configuration (they define the public function H and the sketch length).
package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flag"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/gateway"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/sketch"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		nodesStr = flag.String("nodes", "", "comma-separated sketchd addresses (fleet mode)")
		single   = flag.Bool("single", false, "run an in-process engine instead of fronting a cluster")
		keyring  = flag.String("keyring", "", "tenant keyring JSON file (required)")
		p        = flag.Float64("p", 0.3, "bias parameter p (must match the fleet)")
		users    = flag.Int("users", 1_000_000, "expected population size")
		tau      = flag.Float64("tau", 1e-6, "sketch failure probability")
		keyHex   = flag.String("keyhex", "", "hex-encoded generator key (>= 38 bytes; must match the fleet)")
		rf       = flag.Int("rf", 2, "replication factor (fleet mode)")
		inflight = flag.Int("max-inflight", 256, "concurrent request cap; past it requests shed 503 (0: uncapped)")
		maxBatch = flag.Int("max-batch", gateway.DefaultMaxBatch, "records per publish request")
		reqTO    = flag.Duration("request-timeout", 10*time.Second, "end-to-end budget of one fan-out attempt")
		pprofOn  = flag.Bool("pprof", false, "also mount net/http/pprof on the gateway mux (operator use only)")
	)
	flag.Parse()

	if *keyring == "" {
		fail("sketchgate requires -keyring")
	}
	if *single == (*nodesStr != "") {
		fail("sketchgate requires exactly one of -nodes or -single")
	}

	key, err := prf.GeneratorKey(*keyHex)
	if err != nil {
		fail("bad -keyhex: %v", err)
	}
	prob, err := prf.NewProb(*p)
	if err != nil {
		fail("%v", err)
	}
	h := prf.NewBiased(key, prob)
	params, err := sketch.ParamsFor(*p, *users, *tau)
	if err != nil {
		fail("%v", err)
	}
	ring, err := gateway.LoadKeyring(*keyring, key)
	if err != nil {
		fail("%v", err)
	}

	reg := obs.NewRegistry()
	var (
		backend gateway.Backend
		admin   gateway.AdminBackend
		closeFn func() error = func() error { return nil }
	)
	if *single {
		eng, err := engine.New(h, params)
		if err != nil {
			fail("%v", err)
		}
		eng.SetMetrics(reg)
		backend = gateway.EngineBackend{E: eng}
	} else {
		var nodes []string
		for _, n := range strings.Split(*nodesStr, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
		router, err := cluster.NewRouter(h, cluster.Config{
			Nodes:          nodes,
			Replication:    *rf,
			RequestTimeout: *reqTO,
		})
		if err != nil {
			fail("%v", err)
		}
		rb := gateway.RouterBackend{R: router}
		backend, admin = rb, rb
		closeFn = router.Close
	}

	gw, err := gateway.New(gateway.Config{
		Backend:     backend,
		Admin:       admin,
		Keyring:     ring,
		Params:      params,
		Hash:        h,
		MaxInFlight: *inflight,
		MaxBatch:    *maxBatch,
		Obs:         reg,
		EnablePprof: *pprofOn,
	})
	if err != nil {
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen %s: %v", *addr, err)
	}
	srv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	mode := "fleet"
	if *single {
		mode = "single-node"
	}
	fmt.Printf("sketchgate listening on %s (%s mode, %d tenants, domain_bits=%d)\n",
		ln.Addr(), mode, len(ring.Tenants()), ring.DomainBits())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			if err := ring.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "keyring reload failed, keeping previous keys: %v\n", err)
			} else {
				fmt.Printf("keyring reloaded (%d tenants)\n", len(ring.Tenants()))
			}
			continue
		}
		break
	}
	fmt.Println("shutting down")
	exit := 0
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	if err := closeFn(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	os.Exit(exit)
}
