package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/faultnet"
)

// TestChaosSeedMatrix replays the committed chaos seeds: every
// router→node connection draws a deterministic fault plan (blackhole,
// reset, torn write, corruption, latency) from the seed, and the cluster
// must keep every successfully published record and answer every
// successful query bit-identically to a single merged engine.  The env
// var SKETCH_CHAOS_SEED pins one seed for reproducing a failure.
func TestChaosSeedMatrix(t *testing.T) {
	if v := os.Getenv("SKETCH_CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad SKETCH_CHAOS_SEED %q: %v", v, err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaos(t, seed) })
		return
	}
	data, err := os.ReadFile(filepath.Join("testdata", "chaos_seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("bad seed line %q: %v", line, err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaos(t, seed) })
	}
}

// TestChaosRandomSeeds is the nightly randomized sweep: it runs only when
// SKETCH_CHAOS_RANDOM=N is set, derives N fresh seeds from the clock, and
// embeds each seed in the subtest name — a failing run prints the exact
// `seed=...` to replay with SKETCH_CHAOS_SEED (and commit to the matrix).
func TestChaosRandomSeeds(t *testing.T) {
	v := os.Getenv("SKETCH_CHAOS_RANDOM")
	if v == "" {
		t.Skip("set SKETCH_CHAOS_RANDOM=N to run N randomized chaos seeds")
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		t.Fatalf("bad SKETCH_CHAOS_RANDOM %q", v)
	}
	base := uint64(time.Now().UnixNano())
	for i := 0; i < n; i++ {
		seed := base ^ (uint64(i)+1)*0x9e3779b97f4a7c15
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaos(t, seed) })
	}
}

// runChaos is one cell of the chaos matrix: a 3-node RF=2 cluster whose
// router links all run seeded fault plans.  Publishes retry until a
// deadline and queries a bounded number of times (replication makes
// individual failures survivable; ErrPartialCoverage means both replicas
// of some span were down at once, which the ping loop heals).  What must
// hold throughout:
// an acknowledged publish is never lost, and an answered query is
// bit-identical to the reference engine holding every record.
func runChaos(t *testing.T, seed uint64) {
	fab := faultnet.NewFabric(seed)
	nodes := startNodes(t, 3)
	// revive is the longest the router leaves a node it lost out of its
	// fan-outs: a breaker's full backoff, then the ping sweep that readmits
	// it.
	var revive time.Duration
	r := startRouterCfg(t, nodes, 2, func(cfg *cluster.Config) {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			ep := fab.Endpoint("to:" + addr)
			ep.EnableChaos()
			return ep.Dial(nil)(addr, timeout)
		}
		cfg.DialTimeout = 300 * time.Millisecond
		cfg.RequestTimeout = 500 * time.Millisecond
		cfg.HedgeDelay = 100 * time.Millisecond
		cfg.BackoffMax = 500 * time.Millisecond
		revive = cfg.BackoffMax + cfg.PingInterval
	})
	pubs, subset, field := planWorkload(t, 60, seed|1)
	ref := referenceEngine(t, pubs)

	// Publish record by record, retrying until a deadline: replicated
	// ingest is idempotent per (user, subset), so a partially-acknowledged
	// attempt converges on retry.  The deadline is several revivals long,
	// not a count of sleeps: the box runs every package's tests at once,
	// and a record that still fails after that is the router's doing, with
	// its state attached.
	for i, p := range pubs {
		deadline := time.Now().Add(10 * revive)
		err := r.Publish(p)
		for err != nil && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			err = r.Publish(p)
		}
		if err != nil {
			t.Fatalf("seed %d: publish %d/%d never succeeded: %v\n%s", seed, i, len(pubs), err, routerEvidence(r))
		}
	}

	// Queries under ongoing chaos: each must either fail loudly (typed
	// partial coverage while both replicas of a span are dark, retried
	// after the ping loop revives a node) or answer exactly.
	queries := []struct {
		name string
		run  func() (interface{}, error)
		want func() (interface{}, error)
	}{
		{"field-at-most", func() (interface{}, error) { return r.Estimator().FieldAtMost(r, field, 9) },
			func() (interface{}, error) { return ref.FieldAtMost(field, 9) }},
		{"field-mean", func() (interface{}, error) { return r.Estimator().FieldMean(r, field) },
			func() (interface{}, error) { return ref.FieldMean(field) }},
		{"subset-records", func() (interface{}, error) { return subsetRecords(r, subset) },
			func() (interface{}, error) { return subsetRecords(ref.Source(nil), subset) }},
	}
	for i, q := range queries {
		want, err := q.want()
		if err != nil {
			t.Fatalf("seed %d: reference %s failed: %v", seed, q.name, err)
		}
		// Answered twice: the second answer finds the first one's keep
		// masks cached, under whatever live set the chaos has moved to.
		for answer := 0; answer < 2; answer++ {
			var got interface{}
			for attempt := 0; attempt < 20; attempt++ {
				got, err = q.run()
				if err == nil {
					break
				}
				if !errors.Is(err, cluster.ErrPartialCoverage) && !isRetryableChaos(err) {
					t.Fatalf("seed %d: query %d (%s), answer %d, attempt %d aborted with a non-coverage error: %v\n%s",
						seed, i, q.name, answer, attempt, err, routerEvidence(r))
				}
				time.Sleep(100 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("seed %d: query %d (%s), answer %d never recovered: %v\n%s", seed, i, q.name, answer, err, routerEvidence(r))
			}
			if got != want {
				t.Fatalf("seed %d: query %d (%s), answer %d is %+v, reference says %+v\n%s", seed, i, q.name, answer, got, want, routerEvidence(r))
			}
		}
	}
}

// isRetryableChaos allows transient non-coverage failures (e.g. every
// attempt of a fan-out lost to injected faults before the dead-set
// exceeded RF) to be retried by the chaos loop.
func isRetryableChaos(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "attempts") || strings.Contains(msg, "timeout") ||
		strings.Contains(msg, "deadline") || strings.Contains(msg, "reset")
}
