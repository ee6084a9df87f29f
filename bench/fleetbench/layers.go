package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// histogram is one obs latency histogram read back from the text
// exposition: cumulative counts per upper bound, in seconds.
type histogram struct {
	bounds []float64 // ascending; the last is +Inf
	cum    []float64
	sum    float64
}

// layerCounters is one reading of every registry attached to the fleet
// through its public hooks.  Node registries are summed; cacheMisses
// keeps the plan-cache misses apart per node for prf.evals_per_op.
type layerCounters struct {
	values      map[string]float64
	hists       map[string]*histogram
	cacheMisses [fleetNodes]float64
	subsetSize  [fleetNodes]int // P10 records on each node
}

// readRegistry renders a registry and folds it into c.  Series of one
// family (per-shard gauges) are summed.
func (c *layerCounters) readRegistry(reg *obs.Registry) error {
	var text strings.Builder
	if err := reg.RenderText(&text); err != nil {
		return err
	}
	families, err := obs.ParseText(text.String())
	if err != nil {
		return err
	}
	for _, f := range families {
		if f.Type != "histogram" {
			for _, s := range f.Samples {
				c.values[f.Name] += s.Value
			}
			continue
		}
		h := c.hists[f.Name]
		if h == nil {
			h = &histogram{}
			c.hists[f.Name] = h
		}
		i := 0
		for _, s := range f.Samples {
			switch {
			case strings.HasSuffix(s.Name, "_sum"):
				h.sum += s.Value
			case strings.HasSuffix(s.Name, "_bucket"):
				le, err := strconv.ParseFloat(s.Label("le"), 64)
				if err != nil {
					return fmt.Errorf("%s: bucket bound %q: %w", f.Name, s.Label("le"), err)
				}
				if i == len(h.bounds) {
					h.bounds = append(h.bounds, le)
					h.cum = append(h.cum, 0)
				}
				h.cum[i] += s.Value
				i++
			}
		}
	}
	return nil
}

// readCounters reads the node registries, then the router's.  (The
// gateway's registry repeats the router's fan-out counters under the same
// names; its own series are not part of the layer budget, S1 times it.)
func (e *environment) readCounters() layerCounters {
	c := layerCounters{values: make(map[string]float64), hists: make(map[string]*histogram)}
	for i, n := range e.fleet.nodes {
		missesBefore := c.values["engine_plan_cache_misses_total"]
		if err := c.readRegistry(n.reg); err != nil {
			e.problem("reading %s's registry: %v", n.name, err)
		}
		c.cacheMisses[i] = c.values["engine_plan_cache_misses_total"] - missesBefore
		c.subsetSize[i] = n.eng.Table().CountForSubset(fullSet)
	}
	if err := c.readRegistry(e.fleet.routerReg); err != nil {
		e.problem("reading the router's registry: %v", err)
	}
	return c
}

// delta returns how far a counter moved between two readings.
func delta(before, after layerCounters, name string) float64 {
	return after.values[name] - before.values[name]
}

// histP50ms returns the median, in milliseconds, of the observations a
// histogram gained between two readings, interpolated inside its bucket.
func histP50ms(before, after layerCounters, name string) float64 {
	a := after.hists[name]
	if a == nil {
		return 0
	}
	counts := append([]float64(nil), a.cum...)
	if b := before.hists[name]; b != nil {
		for i := range counts {
			counts[i] -= b.cum[i]
		}
	}
	total := counts[len(counts)-1]
	if total == 0 {
		return 0
	}
	target := total / 2
	lower, below := 0.0, 0.0
	for i, cum := range counts {
		if cum >= target {
			upper := a.bounds[i]
			if i == len(counts)-1 {
				return lower * 1e3 // the +Inf bucket has no width
			}
			return (lower + (upper-lower)*(target-below)/(cum-below)) * 1e3
		}
		lower, below = a.bounds[i], cum
	}
	return 0
}

func histSumMs(before, after layerCounters, name string) float64 {
	a := after.hists[name]
	if a == nil {
		return 0
	}
	sum := a.sum
	if b := before.hists[name]; b != nil {
		sum -= b.sum
	}
	return sum * 1e3
}

// storeShape is the on-disk layout the workload left, from Durable.Stats.
type storeShape struct {
	walBytes, walRecords, segBytes, segRecords float64
}

func (e *environment) storeShape() storeShape {
	var s storeShape
	for _, n := range e.fleet.nodes {
		for _, sh := range n.st.Stats().Shards {
			s.walBytes += float64(sh.WALBytes)
			s.walRecords += float64(sh.WALRecords)
			s.segBytes += float64(sh.SegmentBytes)
			s.segRecords += float64(sh.SegmentRecords)
		}
	}
	return s
}

// probeFsync times 200 small write+fsync pairs in dir and returns the
// median in microseconds: the device's share of a group commit, which
// explains machine-to-machine drift of publish-durable.
func probeFsync(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	us := make([]float64, 200)
	for i := range us {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	return median(us), nil
}

// medianOf runs fn n times and returns the median of what it reports.
func medianOf(n int, fn func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// probes are direct calls of one layer's public function on the loaded
// node 0 after the timed phase: what that layer costs alone, to set
// beside what the spans say it costs inside an op.
type probes struct {
	codecNsPerRecord  float64
	planCachedMs      float64
	ingestUsPerRecord float64
	scanNsPerRecEntry float64
	prfNsPerEval      float64
}

func (e *environment) runProbes() (probes, error) {
	var p probes
	node := e.fleet.nodes[0]
	sample := e.corpus.base
	if len(sample) > 50_000 {
		sample = sample[:50_000]
	}

	// wire: encode + decode one record, the codec of TypePublish frames,
	// WAL entries and segment records alike.
	var codecErr error
	p.codecNsPerRecord = medianOf(5, func() float64 {
		var dec wire.PublishedDecoder
		start := time.Now()
		for _, rec := range sample {
			if _, err := dec.Decode(wire.EncodePublished(rec)); err != nil {
				codecErr = err
			}
		}
		return float64(time.Since(start)) / float64(len(sample))
	})
	if codecErr != nil {
		return p, codecErr
	}

	// engine: a cached interval plan without an ownership filter.  The
	// gap to a cached query's node round trip is what the filter costs.
	est := node.eng.Estimator()
	plan := query.NewPlan()
	if _, err := est.PlanFieldAtMost(plan, field, 682); err != nil {
		return p, err
	}
	if _, err := est.PlanFieldLessThan(plan, field, 341); err != nil {
		return p, err
	}
	if _, err := node.eng.ExecutePlan(plan, nil); err != nil {
		return p, err
	}
	var planErr error
	p.planCachedMs = medianOf(9, func() float64 {
		start := time.Now()
		if _, err := node.eng.ExecutePlan(plan, nil); err != nil {
			planErr = err
		}
		return float64(time.Since(start)) / float64(time.Millisecond)
	})
	if planErr != nil {
		return p, planErr
	}

	// engine: table admission alone, no store underneath.
	var ingestErr error
	p.ingestUsPerRecord = medianOf(3, func() float64 {
		mem, err := engine.New(e.fleet.hash, e.fleet.params)
		if err != nil {
			ingestErr = err
			return 0
		}
		start := time.Now()
		if err := mem.IngestBatch(sample); err != nil {
			ingestErr = err
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / float64(len(sample))
	})
	if ingestErr != nil {
		return p, ingestErr
	}

	// query: Algorithm 2's scan of one entry over node 0's P10 records,
	// uncached and unfiltered.
	records := node.eng.Table().CountForSubset(fullSet)
	var scanErr error
	value := uint64(0)
	p.scanNsPerRecEntry = medianOf(5, func() float64 {
		one := query.NewPlan()
		value++
		if _, err := est.PlanFraction(one, fullSet, bitvec.FromUint(value, fieldWidth)); err != nil {
			scanErr = err
			return 0
		}
		start := time.Now()
		if _, err := est.ExecutePlanOver(node.eng.Table(), one, nil, nil); err != nil {
			scanErr = err
		}
		return float64(time.Since(start)) / float64(records)
	})
	if scanErr != nil {
		return p, scanErr
	}

	// prf: the HMAC/SHA-256 floor at the active lane width, on the
	// messages a P10 scan of node 0 really hashes.
	snap := node.eng.Table().Snapshot(fullSet)
	if len(snap) > 16_384 {
		snap = snap[:16_384]
	}
	mid := prf.AppendPartHeader(nil, fullSet.TagLen())
	mid = fullSet.AppendTag(mid)
	mid = prf.AppendPartHeader(mid, e.corpus.planted.EncodedLen())
	mid = e.corpus.planted.AppendBytes(mid)
	msgs := make([][]byte, len(snap))
	for i, rec := range snap {
		msg := sketch.AppendRecordPrefix(nil, rec.ID)
		msg = append(msg, mid...)
		msgs[i] = sketch.AppendRecordSuffix(msg, rec.S)
	}
	out := make([]uint64, len(msgs))
	multi := e.fleet.hash.Func().NewMultiEvaluator()
	p.prfNsPerEval = medianOf(5, func() float64 {
		start := time.Now()
		multi.Uint64Batch(msgs, out)
		return float64(time.Since(start)) / float64(len(msgs))
	})
	return p, nil
}

// layerInputs is everything layerMetrics reduces.
type layerInputs struct {
	spans         []span
	before, after layerCounters
	restart       restartStats
	shape         storeShape
	fsyncProbeUs  float64
	probes        probes
}

// opView gathers one recorded op's spans by seam.
type opView struct {
	op      span
	http    []span
	backend []span
	wire    []span // handshakes excluded
	store   []span
}

func intervalsOf(spans []span) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	return ivs
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// layerMetrics reduces the traced run to the per-layer budget.  A layer's
// self time is its span minus the part its children cover; per-op values
// are reduced by their median over the recorded ops unless they are
// exact counts, which are averaged.
func (e *environment) layerMetrics(in layerInputs) []metric {
	w := e.cfg.w
	views := make(map[int32]*opView)
	var order []int32
	for _, s := range in.spans {
		if s.Op < 0 {
			continue
		}
		v := views[s.Op]
		if v == nil {
			v = &opView{}
			views[s.Op] = v
			order = append(order, s.Op)
		}
		switch s.Name {
		case seamOp:
			v.op = s
		case seamHTTP:
			v.http = append(v.http, s)
		case seamBackend:
			v.backend = append(v.backend, s)
		case seamWire:
			if !isHandshake(s) {
				v.wire = append(v.wire, s)
			}
		case seamStore:
			v.store = append(v.store, s)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	nOps := float64(len(order))

	var (
		gatewaySelf, clusterSelf, fanoutWait, storeAppend         []float64
		publishMs, queryMs, roundtripMs                           []float64
		reqBytes, respBytes, wireOut, wireIn, roundtrips, entries float64
		wireNs, storeNs                                           int64
		nodeBusy                                                  [fleetNodes][]float64
		perNodeWire                                               [fleetNodes][]interval
	)
	for _, id := range order {
		v := views[id]
		var httpLen, backendLen, wireCover int64
		for _, s := range v.http {
			httpLen += s.End - s.Start
			reqBytes += float64(s.BytesOut)
			respBytes += float64(s.BytesIn)
			if s.Detail == "/v1/records" {
				publishMs = append(publishMs, ms(s.End-s.Start))
			} else {
				queryMs = append(queryMs, ms(s.End-s.Start))
			}
		}
		for _, s := range v.backend {
			backendLen += s.End - s.Start
			entries += float64(s.Entries)
			// The router is waiting, not working, while at least one
			// request exchange of this call is outstanding.  (A hello
			// is router work on the way to a node: it stays in self.)
			wireCover += unionLen(intervalsOf(v.wire), s.Start, s.End)
		}
		gatewaySelf = append(gatewaySelf, ms(httpLen-backendLen))
		clusterSelf = append(clusterSelf, ms(backendLen-wireCover))
		slowest := int64(0)
		var byNode [fleetNodes][]interval
		for _, s := range v.wire {
			roundtrips++
			wireOut += float64(s.BytesOut)
			wireIn += float64(s.BytesIn)
			roundtripMs = append(roundtripMs, ms(s.End-s.Start))
			wireNs += s.End - s.Start
			byNode[s.Node] = append(byNode[s.Node], interval{s.Start, s.End})
			perNodeWire[s.Node] = append(perNodeWire[s.Node], interval{s.Start, s.End})
		}
		for i := range byNode {
			busy := unionLen(byNode[i], v.op.Start, v.op.End)
			nodeBusy[i] = append(nodeBusy[i], ms(busy))
			if busy > slowest {
				slowest = busy
			}
		}
		fanoutWait = append(fanoutWait, ms(slowest))
		storeAppend = append(storeAppend, ms(unionLen(intervalsOf(v.store), v.op.Start, v.op.End)))
		for _, s := range v.store {
			storeNs += s.End - s.Start
		}
	}

	// Tracing overhead: recorded (odd) rounds against unrecorded (even)
	// rounds of the same run, same fleet state, interleaved.
	var recorded, unrecorded []float64
	for r, round := range e.lat {
		for _, d := range round {
			if r%2 == 1 {
				recorded = append(recorded, ms(int64(d)))
			} else {
				unrecorded = append(unrecorded, ms(int64(d)))
			}
		}
	}
	overhead := 0.0
	if base := median(unrecorded); base > 0 {
		overhead = 100 * (median(recorded)/base - 1)
	}

	skew := 0.0
	fastest, slowestNode := 0.0, 0.0
	for i := range nodeBusy {
		m := median(nodeBusy[i])
		if i == 0 || m < fastest {
			fastest = m
		}
		if m > slowestNode {
			slowestNode = m
		}
	}
	if fastest > 0 {
		skew = slowestNode / fastest
	}
	inflightPeak := 0
	for i := range perNodeWire {
		if p := peakOverlap(perNodeWire[i]); p > inflightPeak {
			inflightPeak = p
		}
	}

	allOps := float64(e.attempted)

	// Unattributed time is looked for below S3, where an untimed seam can
	// hide: the share of the node round trips (summed over exchanges) that
	// neither the store's appends (S4, inside them) nor the engines' plan
	// executions account for — framing, the server's dispatch, table
	// admission and the loopback.  The plan-execution histogram covers
	// every round, so the recorded ops take their share of it.
	unattributed := 0.0
	if wireNs > 0 {
		planExecMs := histSumMs(in.before, in.after, "engine_plan_exec_seconds") * nOps / allOps
		unattributed = 100 * (1 - (ms(storeNs)+planExecMs)/ms(wireNs))
	}

	// The process's consumption, over the unrecorded rounds: the untraced
	// code path, each round read on its own so that nothing the harness
	// does between rounds (the crash copy) is in it.
	var used usage
	usedOps := 0.0
	for r := 0; r < len(e.usage); r += 2 {
		u := e.usage[r]
		used.allocBytes += u.allocBytes
		used.gcCycles += u.gcCycles
		used.gcPause += u.gcPause
		used.cpu += u.cpu
		usedOps += float64(w.opsPerRound)
	}
	hits := delta(in.before, in.after, "engine_plan_cache_hits_total")
	misses := delta(in.before, in.after, "engine_plan_cache_misses_total")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	// Every miss scans the node's whole subset snapshot once: records
	// scanned × entries missed.  The subset grows linearly under
	// mixed-fresh, so the phase's mean size is the mean of its ends.
	evals := 0.0
	for i := range in.after.cacheMisses {
		missed := in.after.cacheMisses[i] - in.before.cacheMisses[i]
		evals += missed * float64(in.before.subsetSize[i]+in.after.subsetSize[i]) / 2
	}
	commits := delta(in.before, in.after, "store_commits_total")
	storedInPhase := float64(e.attempted*w.freshPerOp) * replication
	fsyncsPerRecord, recordsPerCommit := 0.0, 0.0
	if storedInPhase > 0 && commits > 0 {
		fsyncsPerRecord = commits / storedInPhase
		recordsPerCommit = storedInPhase / commits
	}
	perRecord := func(total, records float64) float64 {
		if records == 0 {
			return 0
		}
		return total / records
	}
	perOp := func(total float64) float64 {
		if nOps == 0 {
			return 0
		}
		return total / nOps
	}
	restartRecords := float64(in.restart.records)

	return []metric{
		{"client.trace_overhead_pct", "%", overhead},
		{"client.unattributed_pct", "%", unattributed},
		{"client.publish_ms_p50", "ms", median(publishMs)},
		{"client.query_ms_p50", "ms", median(queryMs)},
		{"gateway.self_ms_per_op", "ms", median(gatewaySelf)},
		{"gateway.request_bytes_per_op", "B", perOp(reqBytes)},
		{"gateway.response_bytes_per_op", "B", perOp(respBytes)},
		{"cluster.self_ms_per_op", "ms", median(clusterSelf)},
		{"cluster.roundtrips_per_op", "count", perOp(roundtrips)},
		{"cluster.fanout_wait_ms_p50", "ms", median(fanoutWait)},
		{"cluster.node_skew_ratio", "ratio", skew},
		{"cluster.hedges_per_op", "count", delta(in.before, in.after, "cluster_fanout_hedges_total") / allOps},
		{"cluster.retries_per_op", "count", delta(in.before, in.after, "cluster_fanout_retries_total") / allOps},
		{"wire.bytes_out_per_op", "B", perOp(wireOut)},
		{"wire.bytes_in_per_op", "B", perOp(wireIn)},
		{"wire.codec_ns_per_record", "ns", in.probes.codecNsPerRecord},
		{"server.roundtrip_ms_p50", "ms", median(roundtripMs)},
		{"server.inflight_peak", "count", float64(inflightPeak)},
		{"engine.plan_exec_ms_p50", "ms", histP50ms(in.before, in.after, "engine_plan_exec_seconds")},
		{"engine.cache_hit_ratio", "ratio", hitRatio},
		{"engine.plan_exec_nofilter_cached_ms", "ms", in.probes.planCachedMs},
		{"engine.ingest_us_per_record", "us", in.probes.ingestUsPerRecord},
		{"query.entries_per_op", "count", perOp(entries)},
		{"query.scan_ns_per_record_entry", "ns", in.probes.scanNsPerRecEntry},
		{"sketch.sketch_us_per_record", "us", float64(e.corpus.sketchTime) / float64(time.Microsecond) / float64(e.corpus.sketched)},
		{"prf.ns_per_eval", "ns", in.probes.prfNsPerEval},
		{"prf.lanes", "count", float64(prf.Lanes())},
		{"prf.evals_per_op", "count", evals / allOps},
		{"store.append_ms_per_op", "ms", median(storeAppend)},
		{"store.fsyncs_per_record", "count", fsyncsPerRecord},
		{"store.records_per_commit", "count", recordsPerCommit},
		{"store.commit_ms_p50", "ms", histP50ms(in.before, in.after, "store_commit_seconds")},
		{"store.fsync_probe_us", "us", in.fsyncProbeUs},
		{"store.wal_bytes_per_record", "B", perRecord(in.shape.walBytes, in.shape.walRecords)},
		{"store.segment_bytes_per_record", "B", perRecord(in.shape.segBytes, in.shape.segRecords)},
		{"store.rolls", "count", delta(in.before, in.after, "store_wal_rolls_total")},
		{"store.compactions", "count", delta(in.before, in.after, "store_compactions_total")},
		{"store.compaction_ms_total", "ms", histSumMs(in.before, in.after, "store_compaction_seconds")},
		{"store.replay_ns_per_record", "ns", perRecord(median(in.restart.replayNs), restartRecords)},
		{"store.replay_allocs_per_record", "count", perRecord(median(in.restart.allocs), restartRecords)},
		{"store.replay_alloc_bytes_per_record", "B", perRecord(median(in.restart.allocBytes), restartRecords)},
		{"runtime.alloc_bytes_per_op", "B", float64(used.allocBytes) / usedOps},
		{"runtime.gc_cycles", "count", float64(used.gcCycles)},
		{"runtime.gc_pause_ms_total", "ms", ms(int64(used.gcPause))},
		{"runtime.cpu_s_per_op", "s", used.cpu.Seconds() / usedOps},
	}
}
