// Command sketchd is the sketch-collection daemon: it listens on TCP,
// accepts published sketches from users and answers conjunctive queries
// from analysts.  Everything it stores is public (sketches only), so the
// daemon needs no more trust than a bulletin board.
//
// Usage:
//
//	sketchd -addr 127.0.0.1:7070 -p 0.3 -users 1000000 -tau 1e-6 -keyhex <hex> \
//	        -data-dir /var/lib/sketchd -shards 8 -fsync -fsync-window 2ms \
//	        -metrics-addr 127.0.0.1:9070 [-pprof]
//
// With -metrics-addr the daemon serves Prometheus /metrics and /healthz on
// a second listener (and net/http/pprof with -pprof): WAL append/fsync
// latency histograms, plan-execution latency, store size gauges and the
// server's robustness counters.  See docs/OPERATIONS.md for the catalog.
//
// The generator key must be shared with every user and analyst (it defines
// the public function H); if -keyhex is omitted a deterministic development
// key is used and a warning is printed.
//
// With -data-dir the daemon runs on the durable store: every acknowledged
// publish is in the shard's write-ahead log before the ack leaves, and a
// restart replays the directory — truncating any torn tail a crash left —
// so the public sketch table survives SIGKILL.  Without -data-dir the
// table is memory-only, as in earlier versions.
//
// As a cluster member behind a sketchrouter, the daemon also serves the
// rebalance data plane: snapshot reads stream its records in batches
// (segment-at-a-time from the durable store, never a whole shard at
// once), transfer pushes ingest moved records idempotently, and the node
// tracks the cluster's ring epoch — learned from hellos, pings and
// ownership filters — refusing partial queries built for a superseded
// ring so a router never merges mixed-ring counters.  See
// docs/OPERATIONS.md for the join/drain procedures this supports.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "listen address")
		p           = flag.Float64("p", 0.3, "bias parameter p (0 < p < 1/2)")
		users       = flag.Int("users", 1_000_000, "expected population size (sets the Lemma 3.1 sketch length)")
		tau         = flag.Float64("tau", 1e-6, "sketch failure probability")
		keyHex      = flag.String("keyhex", "", "hex-encoded generator key (>= 38 bytes; shorter is refused)")
		dataDir     = flag.String("data-dir", "", "durable store directory (empty: memory-only)")
		shards      = flag.Int("shards", store.DefaultShards, "store shard count for a fresh -data-dir")
		fsync       = flag.Bool("fsync", false, "fsync the WAL before acknowledging publishes (survives machine crashes, not just process crashes); concurrent publishes share group-commit fsyncs")
		fsyncWindow = flag.Duration("fsync-window", store.DefaultFsyncWindow, "with -fsync, how long a commit window waits for straggling concurrent publishes before fsyncing (0 commits the instant the cohort is complete; windows always close early when no publish is in flight)")
		idle        = flag.Duration("read-idle-timeout", 5*time.Minute, "close a connection silent for this long between frames")
		maxInFl     = flag.Int("max-inflight", 256, "frames executing concurrently before requests are shed with an overload refusal")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (empty: disabled)")
		pprofOn     = flag.Bool("pprof", false, "also mount net/http/pprof on the metrics address")
	)
	flag.Parse()

	key, err := prf.GeneratorKey(*keyHex)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -keyhex: %v\n", err)
		os.Exit(2)
	}
	if *keyHex == "" {
		fmt.Fprintln(os.Stderr, "warning: using the built-in development generator key; pass -keyhex in production")
	}

	params, err := sketch.ParamsFor(*p, *users, *tau)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prob, err := prf.NewProb(*p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eng, err := engine.New(prf.NewBiased(key, prob), params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		eng.SetMetrics(reg)
	}

	var st *store.Durable
	if *dataDir != "" {
		start := time.Now()
		window := *fsyncWindow
		if window == 0 {
			// Options treats zero as "use the default"; the flag's zero
			// means "no straggler wait", which Options spells negative.
			window = -1
		}
		st, err = store.Open(store.Options{Dir: *dataDir, Shards: *shards, Fsync: *fsync, FsyncWindow: window, Metrics: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := eng.AttachStore(st); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stats := st.Stats()
		fmt.Printf("recovered %d sketches from %s (%d shards, %d segments) in %s\n",
			eng.Sketches(), *dataDir, len(stats.Shards), stats.Segments(),
			time.Since(start).Round(time.Millisecond))
	}

	srv := server.NewWithConfig(eng, server.Config{
		ReadIdleTimeout: *idle,
		MaxInFlight:     *maxInFl,
	})
	var msrv *obs.Server
	if reg != nil {
		srv.RegisterMetrics(reg)
		var health func() error
		if st != nil {
			health = storeHealth(st)
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
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("sketchd listening on %s (%s)\n", bound, params)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	// Stop accepting, close client connections and join the handlers
	// before the final store flush, so nothing acknowledged is left
	// unsynced and idle clients cannot stall the shutdown.  The store is
	// closed even when the server close fails: the flush inside it is the
	// durability half of graceful shutdown.
	exit := 0
	if msrv != nil {
		_ = msrv.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// storeHealth is the /healthz check of a durable node: degraded while any
// shard cannot roll its WAL into a segment.  Publishes are still
// acknowledged and durable in that state, but the shard's log grows until
// an operator frees or repairs the data directory.
func storeHealth(st *store.Durable) func() error {
	return func() error {
		if n := st.RollFailing(); n > 0 {
			return fmt.Errorf("store: %d shard(s) cannot roll the WAL into a segment (see store_roll_failures_total)", n)
		}
		return nil
	}
}
