package main

import (
	"testing"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/server"
	"sketchprivacy/internal/sketch"
)

// routerClusterSize and routerQueryRecords shape the networked-path
// kernels: a 3-node loopback cluster at RF=2, queried over a pre-loaded
// table.
const (
	routerClusterSize       = 3
	routerQueryRecords      = 30_000
	routerQueryRecordsQuick = 5_000
)

// routerRecord fabricates a valid published sketch (the networked path
// does not care how the key was produced).
func routerRecord(id uint64, b bitvec.Subset) sketch.Published {
	return sketch.Published{
		ID:     bitvec.UserID(id),
		Subset: b,
		S:      sketch.Sketch{Key: id % 1024, Length: 10},
	}
}

// benchNodes brings up n in-process nodes behind real TCP servers,
// returning their addresses and engines keyed by address.
func benchNodes(b *testing.B, n int) (addrs []string, engines map[string]*engine.Engine, done func()) {
	p := 0.3
	h := prf.NewBiased(benchKey(), prf.MustProb(p))
	params := sketch.MustParams(p, 10)
	var closers []func()
	engines = make(map[string]*engine.Engine, n)
	for i := 0; i < n; i++ {
		eng, err := engine.New(h, params)
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, addr)
		engines[addr] = eng
		closers = append(closers, func() { srv.Close() })
	}
	return addrs, engines, func() {
		for _, c := range closers {
			c()
		}
	}
}

// benchCluster brings up 3 in-process nodes behind real TCP servers plus
// a router at RF=2.  The returned map keys each node's engine by its
// listen address (the ring member name), so a benchmark can bulk-load
// records straight into their owners.
func benchCluster(b *testing.B) (*cluster.Router, map[string]*engine.Engine, func()) {
	addrs, engines, closeNodes := benchNodes(b, routerClusterSize)
	h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
	r, err := cluster.NewRouter(h, cluster.Config{
		Nodes:        addrs,
		Replication:  2,
		VNodes:       64,
		PingInterval: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r, engines, func() {
		r.Close()
		closeNodes()
	}
}

// benchRebalance sets up a 2-node RF=2 cluster pre-loaded with records
// plus a spare 3rd node, and returns a function running one full
// join→drain membership cycle (two rebalance streams and two ring
// cutovers).  The spare keeps its transferred records between iterations,
// so steady-state iterations measure the scan/stream/cutover machinery
// with idempotent pushes — exactly the operational re-run path.
func benchRebalance(b *testing.B, records int) (cycle func() error, done func()) {
	addrs, engines, closeNodes := benchNodes(b, 3)
	h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
	r, err := cluster.NewRouter(h, cluster.Config{
		Nodes:        addrs[:2],
		Replication:  2,
		VNodes:       64,
		PingInterval: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	subset := bitvec.Range(0, 4)
	for id := uint64(1); id <= uint64(records); id++ {
		rec := routerRecord(id, subset)
		for _, addr := range r.Ring().Owners(rec.ID, 2) {
			if err := engines[addr].Ingest(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	spare := addrs[2]
	return func() error {
			if err := r.Join(spare); err != nil {
				return err
			}
			return r.Drain(spare)
		}, func() {
			r.Close()
			closeNodes()
		}
}

// routerBenchmarks measures the networked cluster path: replicated
// publish through the router (2 node round trips per op) and the 3-node
// scatter-gather conjunctive query with exact partial merging.
func routerBenchmarks(quick bool) []struct {
	name string
	fn   func(b *testing.B)
} {
	queryN := routerQueryRecords
	if quick {
		queryN = routerQueryRecordsQuick
	}
	subset := bitvec.Range(0, 4)
	value := bitvec.MustFromString("1010")
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"router-publish", func(b *testing.B) {
			r, _, done := benchCluster(b)
			defer done()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.Publish(routerRecord(uint64(i+1), subset)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"rebalance-stream", func(b *testing.B) {
			// One op = a full join→drain cycle over the loaded cluster:
			// two rebalance streams scanning every record plus two
			// cutovers.  Divide ns/op by 2×records for a per-record
			// streaming figure.
			cycle, done := benchRebalance(b, queryN)
			defer done()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cycle(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"rebalance-cutover", func(b *testing.B) {
			// The same cycle over an empty cluster: pure control plane —
			// membership validation, empty snapshot streams, epoch
			// cutovers and the post-cutover sweep.
			cycle, done := benchRebalance(b, 0)
			defer done()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cycle(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"router-query-3node", func(b *testing.B) {
			r, engines, done := benchCluster(b)
			defer done()
			// Bulk-load straight into the owner engines along the ring —
			// the direct-to-node path sketchgen -ring pre-partitions for.
			for id := uint64(1); id <= uint64(queryN); id++ {
				rec := routerRecord(id, subset)
				for _, addr := range r.Ring().Owners(rec.ID, 2) {
					if err := engines[addr].Ingest(rec); err != nil {
						b.Fatal(err)
					}
				}
			}
			est := r.Estimator()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.Fraction(r, subset, value); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}
