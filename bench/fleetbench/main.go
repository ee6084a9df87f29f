// Command fleetbench is the repository's end-to-end benchmark: it
// assembles the production stack in one process from public constructors
// only — 3 × {fsynced store → engine → TCP server} behind a consistent-
// hash router (RF 2) behind the HTTP gateway — drives it with one
// closed-loop client, prints every metric by name and unit, and exits
// non-zero when any answer is wrong.
//
// The paper's deployment is publish once, query forever, by anyone: a
// user runs Algorithm 1 and publishes a few-bit sketch, an analyst's
// query is Algorithm 2's PRF scan over every published sketch.  The four
// workloads price what users of such a system feel — a durable publish
// (publish-durable), a query that must scan (query-scan), a query that is
// cached (query-cached) and reads beside writes (mixed-fresh) — and every
// run also reports restart time, disk and memory per record.
//
//	fleetbench -workload W -seed N -seconds S -trace 0|1
//
// With -trace 0 a run reports the end-to-end metrics.  With -trace 1 it
// repeats the workload with spans recorded at the public seams
// (http.Handler, gateway.Backend, the router's Dial, store.Store), an
// obs.Registry on every hook and direct probes of single layers, and
// reports the per-layer metrics.  bench/README.md is the catalogue: what
// each metric means, which end-to-end number it should move on which
// workload, and the noise rules the harness follows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// The run's fixed shape.  Only the op count scales, with -seconds.
const (
	benchUsers    = 50_000
	benchRestarts = 9
)

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a run for people, then the one-line JSON object the
// benchmark driver reads: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func report(res *result, traced bool) {
	fmt.Printf("workload %s  seed %d  users %d  rounds %d  phase %.1fs  gomaxprocs %d  flush-threshold %d B\n",
		res.Workload, res.Seed, res.Users, res.Rounds, res.PhaseSeconds, runtime.GOMAXPROCS(0), flushThreshold)
	fmt.Printf("ops attempted %d  failed %d\n", res.Attempted, res.Failed)
	rest := res.Timing
	if traced {
		rest = res.PerLayer
	}
	for _, set := range [][]metric{res.EndToEnd, res.Counts, rest} {
		for _, m := range set {
			fmt.Printf("  %-40s %16.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "WRONG:", p)
	}
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, make(map[string]metricJSON)}
	for _, m := range metrics {
		out.Metrics[m.Name] = metricJSON{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: publish-durable, query-scan, query-cached or mixed-fresh (empty: all four in turn)")
		seed     = flag.Uint64("seed", 1, "seed of the dataset, the users' coin flips, the decks and the batches")
		seconds  = flag.Int("seconds", refSeconds, "length of the timed phase on the reference machine; it sets the op count, not a deadline")
		trace    = flag.Int("trace", 0, "1: record spans and registries and report the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON")
		dir      = flag.String("dir", ".bench_build", "directory the run keeps its data directories under")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "fleetbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	exit := 0
	for _, w := range selected {
		res, err := run(runConfig{
			w: w, seed: *seed, users: benchUsers, rounds: w.roundsFor(*seconds),
			restarts: benchRestarts,
			trace:    *trace == 1, traceOut: *traceOut, dir: *dir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench:", err)
			os.Exit(1)
		}
		report(res, *trace == 1)
		if !res.correct() {
			exit = 1
		}
	}
	os.Exit(exit)
}
