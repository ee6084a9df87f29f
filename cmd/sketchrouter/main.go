// Command sketchrouter fronts a cluster of sketchd nodes: it places every
// published sketch on an owner node plus RF−1 replicas along a
// consistent-hash ring (FNV-1a over the user id, virtual nodes), and
// answers analyst plans by fanning them out to every live node and merging
// the raw counters exactly — the analyst's estimate is bit-identical to one
// over a single sketchd holding every record.
//
// Usage:
//
//	sketchrouter -addr 127.0.0.1:7080 \
//	        -nodes 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	        -rf 2 -metrics-addr 127.0.0.1:9080 [-pprof]
//
// With -metrics-addr the router serves Prometheus /metrics and /healthz
// (and net/http/pprof with -pprof): per-attempt fan-out RTT and publish
// replication latency histograms, the fan-out robustness counters,
// per-node breaker and hint-queue collectors, live rebalance progress, and
// the client port's own server_* families (frames, sheds, idle closes,
// checksum refusals) — the port runs a node's connection loop and guards.
// /healthz reports 503 while zero members are live.
//
// The router speaks the same wire protocol as sketchd, so sketchctl (and
// any other client) can publish and query through it unchanged; `sketchctl
// ping` returns the router's per-node liveness, sketch counts and ring
// ownership spans.  The router holds neither the generator key nor the
// bias: it adds counters, and the asker debiases them.
//
// Nodes are health-checked with periodic pings and marked dead with
// exponential backoff.  A publish is acknowledged only after every live
// replica acknowledged it, so killing any RF−1 nodes loses no acknowledged
// sketch; queries fail over to the surviving replicas automatically.  With
// -hinted-handoff (the default), a publish whose replica is briefly down
// still succeeds: the record is queued and replayed when the replica
// returns, which rejoins query fan-outs only once it has caught up.
//
// The membership is dynamic: `sketchctl join -node <addr>` adds capacity
// and `sketchctl drain -node <addr>` retires a node, both while the
// cluster keeps serving.  The router diffs the old and new consistent-hash
// rings, streams only the moved (user, subset) sketches to their new
// owners in CRC-framed idempotent batches, dual-writes publishes that
// arrive mid-migration, and cuts the ring over atomically — every query
// before, during and after the move returns the same bits a single merged
// engine would.  Each cutover bumps the ring epoch; nodes refuse partial
// queries from a superseded epoch, so a racing fan-out retries instead of
// merging mixed-ring partials.  `sketchctl rebalance-status` reports
// progress.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7080", "listen address")
		nodesStr    = flag.String("nodes", "", "comma-separated sketchd addresses (required)")
		rf          = flag.Int("rf", 2, "replication factor: copies of every sketch")
		vnodes      = flag.Int("vnodes", 64, "virtual nodes per member on the placement ring")
		pingIvl     = flag.Duration("ping-interval", 2*time.Second, "node health-check period")
		hints       = flag.Bool("hinted-handoff", true, "queue publishes for briefly-down replicas and replay them on return")
		maxHints    = flag.Int("max-hints", 4096, "hint queue cap per down replica (at the cap, publishes fail loudly)")
		batch       = flag.Int("transfer-batch", 2048, "most records per rebalance snapshot read and transfer push (a frame holds fewer when subsets are wide)")
		reqTO       = flag.Duration("request-timeout", 10*time.Second, "end-to-end budget of one fan-out attempt (carried to the nodes in every filter)")
		hedge       = flag.Duration("hedge-delay", 0, "wait on a silent node before re-asking its slice from surviving replicas (0: request-timeout/4)")
		transTO     = flag.Duration("transfer-timeout", 60*time.Second, "budget of one rebalance snapshot read or transfer push")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (empty: disabled)")
		pprofOn     = flag.Bool("pprof", false, "also mount net/http/pprof on the metrics address")
	)
	flag.Parse()

	if *nodesStr == "" {
		fmt.Fprintln(os.Stderr, "sketchrouter requires -nodes")
		os.Exit(2)
	}
	var nodes []string
	for _, n := range strings.Split(*nodesStr, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}

	// The router never evaluates H and never debiases: its clients ask for
	// merged counters and finish the estimate under their own -p, so it
	// takes neither a key nor a bias.
	router, err := cluster.NewRouter(nil, cluster.Config{
		Nodes:           nodes,
		Replication:     *rf,
		VNodes:          *vnodes,
		PingInterval:    *pingIvl,
		HintedHandoff:   *hints,
		MaxHintsPerNode: *maxHints,
		TransferBatch:   *batch,
		RequestTimeout:  *reqTO,
		HedgeDelay:      *hedge,
		TransferTimeout: *transTO,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	front := server.NewFrontend(router)
	var msrv *obs.Server
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		router.RegisterMetrics(reg)
		front.RegisterMetrics(reg)
		// The router is healthy while at least one member answers pings:
		// with zero live nodes every query and publish would refuse anyway.
		health := func() error {
			if len(router.LiveNodes()) == 0 {
				return fmt.Errorf("no live nodes among %d members", len(router.Members()))
			}
			return nil
		}
		msrv, err = obs.ListenAndServe(*metricsAddr, obs.Handler(reg, health, *pprofOn), func(err error) {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics listening on %s\n", msrv.Addr())
	}

	bound, err := front.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("sketchrouter listening on %s (rf=%d over %d nodes, %d live)\n",
		bound, *rf, len(nodes), len(router.LiveNodes()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	exit := 0
	if msrv != nil {
		_ = msrv.Close()
	}
	if err := front.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	if err := router.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	os.Exit(exit)
}
