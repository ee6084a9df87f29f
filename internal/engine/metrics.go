package engine

import (
	"sketchprivacy/internal/obs"
)

// engineMetrics holds the engine's hot-path instruments.  A nil pointer
// (SetMetrics never called) keeps every path at one nil check with no
// time.Now, so library users and benchmarks pay nothing.
type engineMetrics struct {
	planExec      *obs.Histogram
	ingests       *obs.Counter
	snapshotBatch *obs.Counter
}

// SetMetrics registers the engine's instrument families on reg and starts
// recording: plan-execution latency, ingest and rebalance-snapshot
// counters, plus render-time gauges for the table size and the cache's
// size in bytes, entries and probation bytes, the cache's hit/miss
// counters, evaluation bitmaps and keep masks apart, its admissions and
// rejections, and the evaluations of H its misses cost (the cache counts
// always; the registry only exposes them).  Call once,
// before the engine starts serving.
func (e *Engine) SetMetrics(reg *obs.Registry) {
	e.m = &engineMetrics{
		planExec:      reg.Histogram("engine_plan_exec_seconds", "Latency of one compiled-plan execution over the local table.", nil),
		ingests:       reg.Counter("engine_ingest_total", "Sketch records newly ingested (idempotent re-publishes excluded)."),
		snapshotBatch: reg.Counter("engine_snapshot_batches_total", "Record batches generated for rebalance snapshot streams."),
	}
	reg.GaugeFunc("engine_sketches", "Sketch records currently in the in-memory table.",
		func() float64 { return float64(e.table.Len()) })
	reg.GaugeFunc("engine_plan_cache_bytes", "Bytes the plan cache's evaluation bitmaps and keep masks are charged against its 32 MiB budget, the 256 KiB probation window's entries included: words, keys and a fixed overhead an entry.",
		func() float64 { bytes, _, _ := e.cache.size(); return float64(bytes) })
	reg.GaugeFunc("engine_plan_cache_entries", "Evaluation bitmaps and keep masks the plan cache holds.",
		func() float64 { _, entries, _ := e.cache.size(); return float64(entries) })
	reg.GaugeFunc("engine_plan_cache_probation_bytes", "Bytes of engine_plan_cache_bytes held by entries computed once and not yet asked for again, in the 256 KiB probation window.",
		func() float64 { _, _, probation := e.cache.size(); return float64(probation) })
	reg.CounterFunc("engine_plan_cache_admitted_total", "Plan-cache entries admitted to the main budget: promoted from probation by a hit, or put there at once because the key was asked for before.",
		func() uint64 { return e.cache.admitted.Load() })
	reg.CounterFunc("engine_plan_cache_rejected_total", "Plan-cache entries the probation window dropped without their having been asked for again.",
		func() uint64 { return e.cache.rejected.Load() })
	reg.CounterFunc("engine_plan_cache_hits_total", "Plan-executor bitmap cache hits.",
		func() uint64 { return e.cache.hits.Load() })
	reg.CounterFunc("engine_plan_cache_misses_total", "Plan-executor bitmap cache misses (stale generation or absent).",
		func() uint64 { return e.cache.misses.Load() })
	reg.CounterFunc("engine_keep_mask_hits_total", "Ownership keep-mask lookups served from the bitmap cache.",
		func() uint64 { return e.cache.maskHits.Load() })
	reg.CounterFunc("engine_keep_mask_misses_total", "Ownership keep masks rebuilt over a subset's records (stale generation, new filter key or absent).",
		func() uint64 { return e.cache.maskMisses.Load() })
	reg.CounterFunc("engine_plan_evaluations_total", "Evaluations of H made by plan scans: records the filter keeps times the pairs the cache missed.",
		func() uint64 { return e.cache.evals.Load() })
}
