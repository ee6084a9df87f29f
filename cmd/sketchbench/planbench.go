package main

import (
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// planIntervalRecords sizes the interval-query kernels; quick shrinks the
// networked variant the same way the router kernels shrink.
const (
	planIntervalRecords      = 10_000
	planIntervalRecordsQuick = 5_000
)

// planFilteredRecords sizes plan-warm-cache-filtered so that ONE keep mask
// (records ÷ 8 = 8 KiB) outweighs everything else the warm executor
// allocates per query; the bytes<=N pin in kernels.txt sits below it.
const planFilteredRecords = 1 << 16

// planField is the 8-bit attribute the interval kernels query.
func planField() bitvec.IntField { return bitvec.MustIntField(0, 8) }

// loadPlanTable fabricates n records per subset (the executors do not care
// how keys were produced, exactly like the router kernels).
func loadPlanTable(b *testing.B, tab *sketch.Table, subsets []bitvec.Subset, n int) {
	for _, subset := range subsets {
		for id := uint64(1); id <= uint64(n); id++ {
			rec := routerRecord(id, subset)
			if err := tab.Add(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// planBenchmarks measures the plan executor: the one-pass local interval
// query (every prefix evaluation in a single sharded table scan), a node's
// cold filtered share of it, the same decomposition pushed to a 3-node
// cluster in one planQuery fan-out, and
// the warm-cache repeat of the conjunctive-query-10k workload, where the
// engine's generation-versioned bitmap cache reduces the whole query to a
// popcount, and a node's filtered share of the interval query with its
// keep masks in the same cache.
func planBenchmarks(quick bool) []struct {
	name string
	fn   func(b *testing.B)
} {
	routerN := planIntervalRecords
	if quick {
		routerN = planIntervalRecordsQuick
	}
	f := planField()
	// 181 = 10110101: five prefix terms plus the ≤-completion equality —
	// a representative multi-entry interval plan.
	const c = 181
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"plan-interval-local", func(b *testing.B) {
			h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
			est, err := query.NewEstimator(h)
			if err != nil {
				b.Fatal(err)
			}
			tab := sketch.NewTable()
			loadPlanTable(b, tab, query.FieldPrefixSubsets(f), planIntervalRecords)
			src := est.TableSource(tab)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.FieldAtMost(src, f, c); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-interval-cold-filtered", func(b *testing.B) {
			// A fleet node's cold share of the same interval query: the
			// FieldAtMost plan under a 3-node ownership filter with no
			// cache, so every op builds each subset's keep mask and
			// evaluates H on the records it keeps (≈ ⅓).
			h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
			est, err := query.NewEstimator(h)
			if err != nil {
				b.Fatal(err)
			}
			tab := sketch.NewTable()
			loadPlanTable(b, tab, query.FieldPrefixSubsets(f), planIntervalRecords)
			plan := query.NewPlan()
			if _, err := est.PlanFieldAtMost(plan, f, c); err != nil {
				b.Fatal(err)
			}
			keep := planBenchFilter(b)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.ExecutePlanOver(tab, plan, keep, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-scan-multilane", func(b *testing.B) {
			// The raw Algorithm 2 record loop the plan executor is built
			// on: one (B, v) pair counted over 10k records through the
			// kernel's 64-record multi-lane batch path, single goroutine.
			h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
			subset := bitvec.Range(0, 4)
			tab := sketch.NewTable()
			for id := uint64(1); id <= uint64(planIntervalRecords); id++ {
				if err := tab.Add(routerRecord(id, subset)); err != nil {
					b.Fatal(err)
				}
			}
			records, _ := tab.View(subset)
			v := bitvec.MustFromString("1010")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sketch.CountMatches(h, records, subset, v)
			}
		}},
		{"plan-interval-router-3node", func(b *testing.B) {
			r, engines, done := benchCluster(b)
			defer done()
			for _, subset := range query.FieldPrefixSubsets(f) {
				for id := uint64(1); id <= uint64(routerN); id++ {
					rec := routerRecord(id, subset)
					for _, addr := range r.Ring().Owners(rec.ID, 2) {
						if err := engines[addr].Ingest(rec); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			est := r.Estimator()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.FieldAtMost(r, f, c); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-warm-cache", func(b *testing.B) {
			// The conjunctive-query-10k workload behind the engine's
			// bitmap cache: after the warm-up query outside the timer,
			// each op is a cache-hit popcount.  The acceptance bar is
			// ns/op ≥ 5× below the cold conjunctive-query-10k kernel.
			pq := 0.25
			hq := prf.NewBiased(benchKey(), prf.MustProb(pq))
			eng, err := engine.New(hq, sketch.MustParams(pq, 10))
			if err != nil {
				b.Fatal(err)
			}
			subset := bitvec.Range(0, 4)
			for id := uint64(1); id <= 10_000; id++ {
				if err := eng.Ingest(routerRecord(id, subset)); err != nil {
					b.Fatal(err)
				}
			}
			v := bitvec.MustFromString("1010")
			if _, err := eng.Conjunction(subset, v); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Conjunction(subset, v); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-warm-cache-filtered", func(b *testing.B) {
			// A node's share of a cached interval query: the compiled
			// FieldAtMost plan under a compiled 3-node ownership filter,
			// evaluation bitmaps and keep masks both warm.  kernels.txt
			// pins its bytes/op below the size of one keep mask, so a
			// change that quietly rebuilds a mask per query fails
			// -checkkernels on a deterministic figure, not on a timing.
			h := prf.NewBiased(benchKey(), prf.MustProb(0.3))
			eng, err := engine.New(h, sketch.MustParams(0.3, 10))
			if err != nil {
				b.Fatal(err)
			}
			loadPlanTable(b, eng.Table(), query.FieldPrefixSubsets(f), planFilteredRecords)
			plan := query.NewPlan()
			if _, err := eng.Estimator().PlanFieldAtMost(plan, f, c); err != nil {
				b.Fatal(err)
			}
			keep := planBenchFilter(b)
			if _, err := eng.ExecutePlan(plan, keep); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ExecutePlan(plan, keep); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"plan-histogram-cold", func(b *testing.B) { planHistogramBench(b, false, false, false) }},
		{"plan-histogram-cold-filtered", func(b *testing.B) { planHistogramBench(b, false, true, false) }},
		{"plan-histogram-warm", func(b *testing.B) { planHistogramBench(b, true, false, false) }},
		{"plan-histogram-warm-filtered", func(b *testing.B) { planHistogramBench(b, true, true, false) }},
		{"plan-histogram-warm-unequal-filtered", func(b *testing.B) { planHistogramBench(b, true, true, true) }},
	}
}

// planBenchFilter compiles the first node's ownership filter of an all-live
// 3-node ring, the filter a cluster node executes its share of a query
// under.
func planBenchFilter(b *testing.B) *query.UserFilter {
	nodes := []string{"10.0.0.1:7171", "10.0.0.2:7171", "10.0.0.3:7171"}
	keep, err := cluster.CompileFilter(&wire.Filter{Nodes: nodes, VNodes: 64, Self: nodes[0], Live: nodes})
	if err != nil {
		b.Fatal(err)
	}
	return keep
}

// planHistogramBench measures one Appendix F match histogram of three
// sub-queries, each over its own 16-bit subset of plan-warm-cache's 10 000
// users, through the engine and its cache.  A warm run repeats one plan
// the engine answered before the timer started; a cold run asks every op
// for values no earlier op named, so all three sub-queries miss the cache
// — under the filter, the case a fleet node is in whenever a write has moved
// the generation since the histogram was last asked.
// kernels.txt pins the warm runs' bytes/op below one column of the table,
// so a histogram that goes back to materialising aligned copies of its
// subsets per query fails -checkkernels.  With unequal set, the three
// subsets are 10 000 of 15 000 users each but not the same ones (see
// unequalMember): the join forwards its columns id by id and carries each
// column's rank by its own keep mask, where equal subsets copy each 64-user
// block's kept bits whole.
func planHistogramBench(b *testing.B, warm, filtered, unequal bool) {
	h := prf.NewBiased(benchKey(), prf.MustProb(0.25))
	eng, err := engine.New(h, sketch.MustParams(0.25, 10))
	if err != nil {
		b.Fatal(err)
	}
	subsets := []bitvec.Subset{bitvec.Range(0, 16), bitvec.Range(16, 32), bitvec.Range(32, 48)}
	if unequal {
		for j, subset := range subsets {
			for id := uint64(1); id <= 15_000; id++ {
				if !unequalMember(j, id) {
					continue
				}
				if err := eng.Table().Add(routerRecord(id, subset)); err != nil {
					b.Fatal(err)
				}
			}
		}
	} else {
		loadPlanTable(b, eng.Table(), subsets, 10_000)
	}
	var keep *query.UserFilter
	if filtered {
		keep = planBenchFilter(b)
	}
	plans := make([]*query.Plan, 1)
	if !warm {
		plans = make([]*query.Plan, b.N)
	}
	for i := range plans {
		subs := make([]query.SubQuery, len(subsets))
		for j, subset := range subsets {
			subs[j] = query.SubQuery{Subset: subset, Value: bitvec.FromUint(uint64(i), 16)}
		}
		plans[i] = query.NewPlan()
		if _, err := plans[i].AddHistogram(subs); err != nil {
			b.Fatal(err)
		}
	}
	if warm {
		if _, err := eng.ExecutePlan(plans[0], keep); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecutePlan(plans[i%len(plans)], keep); err != nil {
			b.Fatal(err)
		}
	}
}

// unequalMember says whether user id holds subset j of the unequal
// histogram kernel: ids 1 to 10 000, 3 001 to 13 000, and those of 1 to
// 15 000 that 3 does not divide — overlapping subsets, 4 667 users in all
// three, of which no two ever share a 64-id block.
func unequalMember(j int, id uint64) bool {
	switch j {
	case 0:
		return id <= 10_000
	case 1:
		return id > 3_000 && id <= 13_000
	default:
		return id%3 != 0
	}
}
