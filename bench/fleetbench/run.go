package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Seed      uint64
	Users     int
	Rounds    int
	Attempted int
	Failed    int
	// Problems lists every failed correctness gate and failed op; the run
	// is correct when it is empty.
	Problems []string
	EndToEnd []metric
	// Timing holds the run's wall-clock readings, the head of the per-layer
	// tier (client.*): too unsteady on a shared machine to carry a bound,
	// and what a later issue compares in alternating pairs.
	Timing   []metric
	PerLayer []metric // traced runs only; begins with Timing
	// Counts are the run's exact counts — records per node, stored
	// records, disk bytes — that must repeat from run to run.
	Counts []metric
	// Answers are the bodies the fleet answered the logged questions with,
	// in order: what the oracle reproduced.
	Answers [][]byte
	// PhaseSeconds is how long the timed phase took.
	PhaseSeconds float64
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

// restartStats is what the close → reopen cycles of node 0 measured.
type restartStats struct {
	records    int
	totalNs    []float64 // store.Open + Engine.AttachStore, per cycle
	replayNs   []float64 // store.Open alone, per cycle
	allocs     []float64
	allocBytes []float64
}

// restartNode0 is noise rule 4 applied to recovery: one reopen of a few
// hundred thousand records takes tens of milliseconds, so the harness
// cycles close → GC → reopen several times on the directory as the
// workload left it and reports the median per record.
func (e *environment) restartNode0() (restartStats, error) {
	var rs restartStats
	n := e.fleet.nodes[0]
	if err := n.stop(); err != nil {
		return rs, err
	}
	for c := 0; c < e.cfg.restarts; c++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		open, attach, err := e.fleet.openNode(n, 0)
		if err != nil {
			return rs, fmt.Errorf("restart cycle %d: %w", c, err)
		}
		runtime.ReadMemStats(&after)
		rs.records = n.eng.Sketches()
		rs.totalNs = append(rs.totalNs, float64(open+attach))
		rs.replayNs = append(rs.replayNs, float64(open))
		rs.allocs = append(rs.allocs, float64(after.Mallocs-before.Mallocs))
		rs.allocBytes = append(rs.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		if c < e.cfg.restarts-1 {
			if err := n.st.Close(); err != nil {
				return rs, err
			}
		}
	}
	return rs, e.fleet.serveNode(n)
}

// run performs one run of one workload: set-up, the timed phase, the size
// readings, the restart cycles, the layer probes of a traced run, and
// every correctness gate.
func run(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.dir, "fleetbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	cfg.dir = workDir

	var tr *tracer
	var fsyncProbe float64
	if cfg.trace {
		tr = newTracer()
		if fsyncProbe, err = probeFsync(workDir); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	e, err := setUp(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer e.tearDown()
	setupS := time.Since(start).Seconds()

	var before layerCounters
	if e.fleet.registries {
		before = e.readCounters()
	}
	var cc *crashCopy
	var takeCopy func() error
	if cfg.w.name == "publish-durable" {
		takeCopy = func() (err error) { cc, err = e.takeCrashCopy(); return err }
	}
	phase, err := e.timedPhase(takeCopy)
	if err != nil {
		return nil, err
	}
	var after layerCounters
	if e.fleet.registries {
		after = e.readCounters()
	}

	// Size readings, as the workload left the fleet.
	heap := heapAfterGC()
	stored := e.fleet.storedRecords()
	var disk int64
	for i, n := range e.fleet.nodes {
		b, err := dirBytes(n.dir)
		if err != nil {
			return nil, err
		}
		disk += b
		if got := n.eng.Sketches(); got != e.owned[i] {
			e.problem("%s holds %d records, the ring assigns it %d acknowledged ones", n.name, got, e.owned[i])
		}
	}
	storeShape := e.storeShape()

	// What publish-durable stored is read back through the fleet; every
	// workload leaves one answer to compare across the restart.
	if cfg.w.name == "publish-durable" {
		for _, v := range []uint64{0, 341, 682, 1023} {
			e.ask(fmt.Sprintf("read-back of value %d", v), call{"/v1/query/fraction", fractionRequest(v)})
		}
	}
	probe := call{"/v1/query/fraction", fractionRequest(e.corpus.planted.Uint())}
	beforeRestart := e.ask("answer before the restart", probe)
	rs, err := e.restartNode0()
	if err != nil {
		return nil, err
	}
	if rs.records != e.owned[0] {
		e.problem("%s recovered %d records, %d were acknowledged", nodeName(0), rs.records, e.owned[0])
	}
	if afterRestart := e.ask("answer after the restart", probe); !bytes.Equal(beforeRestart, afterRestart) {
		e.problem("the restart changed an answer: %s before, %s after", bytes.TrimSpace(beforeRestart), bytes.TrimSpace(afterRestart))
	}

	res := &result{
		Workload: cfg.w.name, Seed: cfg.seed, Users: cfg.users, Rounds: cfg.rounds,
		Attempted: e.attempted, Failed: e.failed, PhaseSeconds: phase.Seconds(),
	}
	res.EndToEnd = []metric{
		{"setup_s", "s", setupS},
		{"disk_bytes_per_record", "B", float64(disk) / float64(stored)},
		{"heap_bytes_per_record", "B", (float64(heap) - float64(e.heapBefore)) / float64(stored)},
	}
	// A traced run's unrecorded (even) rounds took the same wrapped code
	// path without the bookkeeping; they alone give its timings.
	lat, walls := e.lat, e.walls
	if tr != nil {
		lat, walls = nil, nil
		for r := 0; r < len(e.lat); r += 2 {
			lat, walls = append(lat, e.lat[r]), append(walls, e.walls[r])
		}
	}
	st := summarize(lat, walls)
	res.Timing = []metric{
		{"client.op_p50_ms", "ms", st.P50ms},
		{"client.op_p90_ms", "ms", st.P90ms},
		{"client.ops_per_s", "1/s", st.OpsPerS},
		{"client.restart_ns_per_record", "ns", median(rs.totalNs) / float64(rs.records)},
	}
	res.Counts = []metric{
		{"records_stored", "count", float64(stored)},
		{"disk_bytes", "B", float64(disk)},
	}
	for i := range e.owned {
		res.Counts = append(res.Counts, metric{fmt.Sprintf("records_node_%d", i), "count", float64(e.owned[i])})
	}
	if e.fleet.registries {
		// Since the stores were opened, so the preload's batched commits
		// are in: group commits depend on who arrives together, so this
		// count repeats closely, not exactly.
		res.Counts = append(res.Counts, metric{"store_commits", "count", after.values["store_commits_total"]})
	}
	for _, v := range e.verify {
		res.Answers = append(res.Answers, v.got)
	}
	if tr != nil {
		pr, err := e.runProbes()
		if err != nil {
			return nil, err
		}
		res.PerLayer = append(res.Timing, e.layerMetrics(layerInputs{
			spans: tr.snapshot(), before: before, after: after,
			restart: rs, shape: storeShape, fsyncProbeUs: fsyncProbe, probes: pr,
		})...)
		if cfg.traceOut != "" {
			if err := tr.writeSpans(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}

	// The fleet goes away before the oracle and the crash copy are read:
	// both allocate tables of their own.
	err = e.fleet.close()
	e.fleet = nil
	if err != nil {
		return nil, err
	}
	if cc != nil {
		if err := cc.check(e); err != nil {
			return nil, err
		}
	}
	if err := e.checkAgainstOracle(); err != nil {
		return nil, err
	}
	res.Problems = e.problems
	return res, nil
}
