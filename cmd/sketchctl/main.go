// Command sketchctl is the client for sketchd: it can act as a user
// (sketch a profile locally and publish only the sketch) or as an analyst
// (run a conjunctive query remotely).
//
// Usage:
//
//	# user side: profile bits are never sent, only the sketch
//	sketchctl -addr 127.0.0.1:7070 publish -id 17 -profile 10110 -subset 0,2,4
//
//	# analyst side
//	sketchctl -addr 127.0.0.1:7070 query -subset 0,2,4 -value 101
//
//	# operator side: per-subset record counts and durable-store sizes
//	sketchctl -addr 127.0.0.1:7070 stats
//
//	# liveness: a node answers with its sketch count, a router with its
//	# ring, per-node liveness and ownership spans
//	sketchctl -addr 127.0.0.1:7080 ping
//
//	# membership (router targets only): grow, shrink and watch the ring.
//	# join and drain block until the rebalance streamed and the ring cut
//	# over; rebalance-status (from another terminal) shows live progress
//	sketchctl -addr 127.0.0.1:7080 join -node 127.0.0.1:7074
//	sketchctl -addr 127.0.0.1:7080 drain -node 127.0.0.1:7071
//	sketchctl -addr 127.0.0.1:7080 rebalance-status
//
//	# observability: scrape a daemon's -metrics-addr (or, with -http, a
//	# sketchgate) and pretty-print the series; histograms are summarized
//	# as count/mean/p50/p99.  -raw dumps the exposition text, -lint runs
//	# the format lint, -match filters by family name
//	sketchctl -addr 127.0.0.1:9070 metrics -match wal
//	sketchctl -http -addr 127.0.0.1:8080 -api-key acme-secret-key-1 metrics
//
//	# HTTP mode: the same verbs against a sketchgate's JSON API.  The
//	# profile is still sketched locally; only the sketch key is sent
//	sketchctl -http -addr 127.0.0.1:8080 -api-key acme-secret-key-1 \
//	        publish -id 17 -profile 10110 -subset 0,2,4
//	sketchctl -http -addr 127.0.0.1:8080 -api-key acme-secret-key-1 \
//	        query -subset 0,2,4 -value 101
//
// Publish and query work unchanged against a sketchrouter — the router
// speaks the node protocol and replicates/fans out internally.  The
// -router flag adjusts the operator commands for a router target: `stats`
// is answered with the router's aggregated cluster status (the per-node
// JSON stats report is a node-level endpoint).
//
// The -p, -users, -tau and -keyhex flags must match the daemon's
// configuration (they define the public function H and the sketch length).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func parseSubset(s string) bitvec.Subset {
	parts := strings.Split(s, ",")
	pos := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fail("bad subset %q: %v", s, err)
		}
		pos = append(pos, n)
	}
	sub, err := bitvec.NewSubset(pos...)
	if err != nil {
		fail("bad subset %q: %v", s, err)
	}
	return sub
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7070", "sketchd or sketchrouter address")
		p       = flag.Float64("p", 0.3, "bias parameter p")
		users   = flag.Int("users", 1_000_000, "expected population size")
		tau     = flag.Float64("tau", 1e-6, "sketch failure probability")
		keyHex  = flag.String("keyhex", "", "hex-encoded generator key (>= 38 bytes; must match the daemon)")
		router  = flag.Bool("router", false, "the address is a sketchrouter: stats reports cluster status")
		useHTTP = flag.Bool("http", false, "the address is a sketchgate: speak the HTTP/JSON API instead of the wire protocol")
		apiKey  = flag.String("api-key", "", "tenant API key for -http mode")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fail("usage: sketchctl [flags] publish|query|stats|ping|join|drain|rebalance-status|metrics [subcommand flags]")
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

	if *useHTTP {
		runHTTP(*addr, *apiKey, h, params, flag.Args())
		return
	}
	if flag.Arg(0) == "metrics" {
		// The metrics endpoint speaks HTTP, not the wire protocol: point
		// -addr at a daemon's -metrics-addr listener.
		runMetrics(*addr, "", flag.Args()[1:])
		return
	}

	cli, err := server.Dial(*addr)
	if err != nil {
		fail("dial %s: %v", *addr, err)
	}
	defer cli.Close()

	switch flag.Arg(0) {
	case "publish":
		fs := flag.NewFlagSet("publish", flag.ExitOnError)
		id := fs.Uint64("id", 0, "public user id")
		profileStr := fs.String("profile", "", "private profile bits, e.g. 10110 (never leaves this machine)")
		subsetStr := fs.String("subset", "", "attribute positions to sketch, e.g. 0,2,4")
		fs.Parse(flag.Args()[1:])
		if *id == 0 || *profileStr == "" || *subsetStr == "" {
			fail("publish requires -id, -profile and -subset")
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
		rng := stats.NewRNG(uint64(time.Now().UnixNano()))
		s, err := sk.Sketch(rng, bitvec.Profile{ID: bitvec.UserID(*id), Data: data}, subset)
		if err != nil {
			fail("sketching failed: %v", err)
		}
		if err := cli.Publish(sketch.Published{ID: bitvec.UserID(*id), Subset: subset, S: s}); err != nil {
			fail("publish failed: %v", err)
		}
		fmt.Printf("published %s for subset %s (%d bits on the wire)\n", s, subset, s.Length)
	case "query":
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		subsetStr := fs.String("subset", "", "sketched attribute positions, e.g. 0,2,4")
		valueStr := fs.String("value", "", "target value over the subset, e.g. 101")
		fs.Parse(flag.Args()[1:])
		if *subsetStr == "" || *valueStr == "" {
			fail("query requires -subset and -value")
		}
		value, err := bitvec.FromString(*valueStr)
		if err != nil {
			fail("bad value: %v", err)
		}
		res, err := cli.QueryConjunction(parseSubset(*subsetStr), value)
		if err != nil {
			fail("query failed: %v", err)
		}
		fmt.Printf("estimated fraction %.4f (raw %.4f) over %d users; estimated count %.0f\n",
			res.Fraction, res.Raw, res.Users, res.Fraction*float64(res.Users))
	case "ping":
		status, err := cli.Ping()
		if err != nil {
			fail("ping failed: %v", err)
		}
		fmt.Print(status)
		if !strings.HasSuffix(status, "\n") {
			fmt.Println()
		}
	case "stats":
		if *router {
			// A router has no single JSON stats report; its cluster status
			// rides the ping opcode.
			status, err := cli.Ping()
			if err != nil {
				fail("router status failed: %v", err)
			}
			fmt.Print(status)
			return
		}
		rep, err := cli.Stats()
		if err != nil {
			fail("stats failed: %v", err)
		}
		fmt.Printf("params: %s\n", rep.Params)
		fmt.Printf("sketches: %d across %d subsets\n", rep.Sketches, len(rep.Subsets))
		if rb := rep.Robustness; rb != nil {
			fmt.Printf("robustness: in-flight %d/%d, overloads %d, idle-closes %d, checksum-errors %d, deadline-abandons %d\n",
				rb.InFlight, rb.MaxInFlight, rb.Overloads, rb.IdleCloses, rb.ChecksumErrors, rb.DeadlineAbandons)
		}
		for _, sc := range rep.Subsets {
			fmt.Printf("  subset %-16s %d records\n", sc.Subset, sc.Count)
		}
		if rep.Store == nil {
			fmt.Println("store: memory-only (no -data-dir)")
			return
		}
		fmt.Printf("store: %s, %d raw records\n", rep.Store.Dir, rep.Store.Records)
		for _, sh := range rep.Store.Shards {
			fmt.Printf("  shard %04d: wal %7d B / %6d records, %d segments %8d B / %6d records\n",
				sh.Shard, sh.WALBytes, sh.WALRecords, sh.Segments, sh.SegmentBytes, sh.SegmentRecords)
		}
	case "join":
		fs := flag.NewFlagSet("join", flag.ExitOnError)
		node := fs.String("node", "", "address of the sketchd to add to the ring")
		fs.Parse(flag.Args()[1:])
		if *node == "" {
			fail("join requires -node")
		}
		fmt.Printf("joining %s (streams moved sketches, then cuts the ring over; this can take a while)...\n", *node)
		if err := cli.Join(*node); err != nil {
			fail("join failed: %v", err)
		}
		status, err := cli.RebalanceStatus()
		if err != nil {
			fail("join succeeded but status failed: %v", err)
		}
		fmt.Print(status)
	case "drain":
		fs := flag.NewFlagSet("drain", flag.ExitOnError)
		node := fs.String("node", "", "address of the sketchd to retire from the ring")
		fs.Parse(flag.Args()[1:])
		if *node == "" {
			fail("drain requires -node")
		}
		fmt.Printf("draining %s (streams its ownership to the remaining nodes, then cuts the ring over)...\n", *node)
		if err := cli.Drain(*node); err != nil {
			fail("drain failed: %v", err)
		}
		status, err := cli.RebalanceStatus()
		if err != nil {
			fail("drain succeeded but status failed: %v", err)
		}
		fmt.Print(status)
	case "rebalance-status":
		status, err := cli.RebalanceStatus()
		if err != nil {
			fail("rebalance-status failed: %v", err)
		}
		fmt.Print(status)
	default:
		fail("unknown subcommand %q", flag.Arg(0))
	}
}
