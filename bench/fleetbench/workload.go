package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
)

// workload describes one of the benchmark's traffic shapes.  Every
// workload is a closed loop with one client and one class of op (noise
// rule 3), so its median sits inside a single mode.
type workload struct {
	name string
	why  string
	// opsPerRound is K and baseRounds is R at the benchmark's own
	// -seconds (refSeconds).  The op count derives from -seconds through
	// them, never from a clock, so every count the run reports repeats
	// exactly; on the reference machine the four phases then last 14 to
	// 24 seconds.
	opsPerRound int
	baseRounds  int
	warmups     int
	// freshPerOp is how many new-user records one op publishes, and
	// freshSubsets which subsets a new user sketches.
	freshPerOp   int
	freshSubsets []bitvec.Subset
}

var workloads = []workload{
	{
		name:        "publish-durable",
		why:         "256-record publish batches: gateway decode, router replication, wire framing and group-commit fsync do all the work, the query layers none",
		opsPerRound: 16, baseRounds: 15, warmups: 2, freshPerOp: 256, freshSubsets: prefixes,
	},
	{
		name:        "query-scan",
		why:         "fraction queries on values never asked before: 0 % bitmap-cache hits, so the Algorithm 2 PRF scan does the work and the store none",
		opsPerRound: 20, baseRounds: 22, warmups: 4,
	},
	{
		name:        "query-cached",
		why:         "a fixed deck of 16 interval queries: every bitmap hits, so the PRF does nothing and gateway, plan compile, fan-out and ownership filter remain",
		opsPerRound: 16, baseRounds: 22, warmups: 32,
	},
	{
		name:        "mixed-fresh",
		why:         "publish 32 new users then query the subset they wrote: every write invalidates what the read wants, so reads beside writes are priced",
		opsPerRound: 16, baseRounds: 15, warmups: 2, freshPerOp: 32, freshSubsets: []bitvec.Subset{fullSet},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// refSeconds is the -seconds value BENCHMARK.json runs at, where each
	// workload runs its baseRounds: three quarters of the issue's round
	// counts, at least 240 ops in at least 15 rounds.
	refSeconds = 20
	// minRounds is the fewest rounds a phase may have: below it the median
	// over rounds stops shielding p90 and throughput from a neighbour's
	// burst.
	minRounds = 10
)

// roundsFor maps the -seconds budget to a round count.
func (w workload) roundsFor(seconds int) int {
	return max(minRounds, w.baseRounds*seconds/refSeconds)
}

// runConfig is one run of one workload.
type runConfig struct {
	w      workload
	seed   uint64
	users  int
	rounds int
	// restarts is the number of close → reopen cycles of node 0.
	restarts int
	trace    bool
	traceOut string
	// registries attaches the metrics registries without the span
	// wrappers; trace implies it.
	registries bool
	// dir is where the run keeps its data directories.
	dir string
}

// call is one HTTP request of an op.
type call struct {
	path string
	body []byte
}

// verification is one answer the fleet gave that the oracle must
// reproduce bit for bit once it holds fresh[:acked].
type verification struct {
	what  string
	call  call
	acked int
	got   []byte
}

// environment is a set-up fleet with everything the timed phase consumes
// allocated before the fleet existed.
type environment struct {
	cfg     runConfig
	dataDir string
	corpus  *corpus
	fleet   *fleet
	tr      *tracer

	ring  *cluster.Ring
	ops   [][]call // warm-ups first, then the timed ops
	acked int      // fresh records acknowledged so far
	// owned counts the acknowledged records the ring assigns each node.
	owned [fleetNodes]int

	heapBefore uint64 // HeapAlloc after GC, before the fleet existed
	lat        [][]time.Duration
	walls      []time.Duration
	usage      []usage // per round, traced runs only
	verify     []verification

	attempted, failed int
	problems          []string
}

func (e *environment) problem(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

// heapAfterGC returns the live heap once garbage is collected.  It
// collects twice: the first cycle only moves sync.Pool contents to the
// pools' victim caches, the second frees them.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp performs the whole set-up the setup_s metric covers: dataset
// generation, Algorithm 1 sketching of every record, request encoding,
// fleet bring-up, preload and warm-up.
func setUp(cfg runConfig, tr *tracer) (*environment, error) {
	dataDir, err := os.MkdirTemp(cfg.dir, "data-")
	if err != nil {
		return nil, err
	}
	e := &environment{cfg: cfg, dataDir: dataDir, tr: tr}
	hash, params, key, err := mechanism()
	if err != nil {
		return nil, err
	}
	keyring, tenant, err := loadTenant(dataDir, key)
	if err != nil {
		return nil, err
	}
	sk, err := sketch.NewSketcher(hash, params)
	if err != nil {
		return nil, err
	}
	if e.ring, err = newRing(); err != nil {
		return nil, err
	}
	w := cfg.w
	nOps := w.warmups + cfg.rounds*w.opsPerRound
	freshRecords := nOps * w.freshPerOp
	freshUsers := 0
	if freshRecords > 0 {
		freshUsers = (freshRecords + len(w.freshSubsets) - 1) / len(w.freshSubsets)
	}
	e.corpus, err = buildCorpus(cfg.seed, cfg.users, freshUsers, w.freshSubsets, tenant, sk)
	if err != nil {
		return nil, err
	}
	if err := e.encodeOps(nOps); err != nil {
		return nil, err
	}
	e.lat = make([][]time.Duration, cfg.rounds)
	for r := range e.lat {
		e.lat[r] = make([]time.Duration, w.opsPerRound)
	}
	e.walls = make([]time.Duration, cfg.rounds)
	e.usage = make([]usage, cfg.rounds)
	e.verify = make([]verification, 0, cfg.rounds+8)

	// Everything above is the harness's; everything below is the fleet's.
	e.heapBefore = heapAfterGC()
	e.fleet, err = newFleet(dataDir, hash, params, keyring, tr, cfg.registries)
	if err != nil {
		return nil, err
	}
	if err := e.preload(); err != nil {
		return nil, err
	}
	for i := 0; i < w.warmups; i++ {
		if _, _, err := e.runOp(i); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return e, nil
}

// tearDown closes the fleet and removes its data.
func (e *environment) tearDown() error {
	var err error
	if e.fleet != nil {
		err = e.fleet.close()
		e.fleet = nil
	}
	if rerr := os.RemoveAll(e.dataDir); err == nil {
		err = rerr
	}
	return err
}

// encodeOps pre-encodes every request of the run (noise rule 6), so the
// timed phase marshals nothing.
func (e *environment) encodeOps(nOps int) error {
	w := e.cfg.w
	rng := stats.NewRNG(e.cfg.seed).Split(3)
	e.ops = make([][]call, nOps)
	switch w.name {
	case "publish-durable":
		for i := range e.ops {
			e.ops[i] = []call{{"/v1/records", e.corpus.publishRequest(i*w.freshPerOp, (i+1)*w.freshPerOp)}}
		}
	case "query-scan":
		// Every op asks a value no earlier op asked, so no bitmap can be
		// cached; the planted value is the first timed op, for the
		// paper-utility gate.
		space := int(field.Max()) + 1
		if nOps > space {
			return fmt.Errorf("query-scan needs %d distinct values but a %d-bit field has %d; lower -seconds", nOps, fieldWidth, space)
		}
		planted := int(e.corpus.planted.Uint())
		perm := rng.Perm(space)
		for i, v := range perm {
			if v == planted {
				perm[i], perm[w.warmups] = perm[w.warmups], perm[i]
				break
			}
		}
		for i := range e.ops {
			e.ops[i] = []call{{"/v1/query/fraction", fractionRequest(uint64(perm[i]))}}
		}
	case "query-cached":
		deck := intervalDeck(rng, w.opsPerRound)
		for i := range e.ops {
			d := deck[i%len(deck)]
			e.ops[i] = []call{{"/v1/query/interval", intervalRequest(d[0], d[1])}}
		}
	case "mixed-fresh":
		var deck [4][]byte
		for i := range deck {
			deck[i] = fractionRequest(rng.Uint64() & field.Max())
		}
		for i := range e.ops {
			e.ops[i] = []call{
				{"/v1/records", e.corpus.publishRequest(i*w.freshPerOp, (i+1)*w.freshPerOp)},
				{"/v1/query/fraction", deck[i%len(deck)]},
			}
		}
	default:
		return fmt.Errorf("unknown workload %q", w.name)
	}
	return nil
}

// preload bulk-loads the base records straight into their ring owners in
// 8192-record batches through each node's fsynced store, the path a
// pre-partitioned bulk import takes.
func (e *environment) preload() error {
	var perNode [fleetNodes][]sketch.Published
	var owners []int
	for _, p := range e.corpus.base {
		owners = ringOwners(e.ring, p.ID, owners)
		for _, i := range owners {
			perNode[i] = append(perNode[i], p)
		}
	}
	errs := make([]error, fleetNodes)
	var wg sync.WaitGroup
	for i, n := range e.fleet.nodes {
		e.owned[i] = len(perNode[i])
		wg.Add(1)
		go func(i int, n *benchNode) {
			defer wg.Done()
			const chunk = 8192
			for from := 0; from < len(perNode[i]); from += chunk {
				to := min(from+chunk, len(perNode[i]))
				if err := n.eng.IngestBatch(perNode[i][from:to]); err != nil {
					errs[i] = fmt.Errorf("preloading %s: %w", n.name, err)
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// do sends one request through the gateway's handler, exactly as an HTTP
// server would hand it over, and returns the status and body.
func (e *environment) do(c call) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
	req.Header.Set("Authorization", "Bearer "+apiKey)
	rec := httptest.NewRecorder()
	if e.tr != nil && e.tr.on.Load() {
		id := e.tr.begin(seamHTTP, c.path, -1)
		e.tr.curHTTP.Store(id)
		e.fleet.handler.ServeHTTP(rec, req)
		e.tr.curHTTP.Store(-1)
		e.tr.end(id, func(s *span) { s.BytesOut, s.BytesIn = int64(len(c.body)), int64(rec.Body.Len()) })
	} else {
		e.fleet.handler.ServeHTTP(rec, req)
	}
	return rec.Code, rec.Body.Bytes()
}

// The response fields the harness checks while the run is in flight.
type publishResponse struct {
	Published   int    `json:"published"`
	RecordsUsed uint64 `json:"records_used"`
}

type usersResponse struct {
	Users int `json:"users"`
}

// runOp performs op i and checks what can be checked without the oracle:
// every status is 200, a publish acknowledged all its records, and a
// mixed-fresh read sees exactly the users written so far.  It returns how
// long the op's calls took and the last call's answer; the checks run
// after the clock stops.
func (e *environment) runOp(i int) (time.Duration, []byte, error) {
	w := e.cfg.w
	calls := e.ops[i]
	var (
		codes  [2]int
		bodies [2][]byte
	)
	start := time.Now()
	for j, c := range calls {
		codes[j], bodies[j] = e.do(c)
	}
	elapsed := time.Since(start)
	answer := bodies[len(calls)-1]
	for j, c := range calls {
		if codes[j] != http.StatusOK {
			return elapsed, nil, fmt.Errorf("%s answered HTTP %d: %s", c.path, codes[j], bodies[j])
		}
	}
	if w.freshPerOp > 0 {
		var owners []int
		for _, p := range e.corpus.fresh[e.acked : e.acked+w.freshPerOp] {
			owners = ringOwners(e.ring, p.ID, owners)
			for _, o := range owners {
				e.owned[o]++
			}
		}
		e.acked += w.freshPerOp
		var resp publishResponse
		if err := json.Unmarshal(bodies[0], &resp); err != nil {
			return elapsed, nil, fmt.Errorf("publish response: %w", err)
		}
		if resp.Published != w.freshPerOp || resp.RecordsUsed != uint64(e.acked) {
			return elapsed, nil, fmt.Errorf("publish acknowledged %d records (%d used), want %d (%d used)",
				resp.Published, resp.RecordsUsed, w.freshPerOp, e.acked)
		}
	}
	if w.name == "mixed-fresh" {
		var resp usersResponse
		if err := json.Unmarshal(bodies[1], &resp); err != nil {
			return elapsed, nil, fmt.Errorf("fraction response: %w", err)
		}
		if want := e.cfg.users + e.acked; resp.Users != want {
			return elapsed, nil, fmt.Errorf("read after write saw %d users, want %d", resp.Users, want)
		}
	}
	return elapsed, answer, nil
}

// ask sends an untimed query and logs its answer for the oracle.
func (e *environment) ask(what string, c call) []byte {
	code, body := e.do(c)
	if code != http.StatusOK {
		e.problem("%s: HTTP %d: %s", what, code, body)
		return nil
	}
	e.verify = append(e.verify, verification{what: what, call: c, acked: e.acked, got: body})
	return body
}

// usage is a reading of what the process has consumed so far; the
// difference of two readings is what the work between them consumed.
type usage struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

func (u usage) since(before usage) usage {
	return usage{u.allocBytes - before.allocBytes, u.gcCycles - before.gcCycles, u.gcPause - before.gcPause, u.cpu - before.cpu}
}

// timedPhase runs R rounds of K ops (noise rule 2) and returns how long
// the phase took.  Each round ends with the maintenance a node's
// background timer would do, inside the round's wall time.  In a traced
// run odd rounds record spans and even rounds do not, so one run yields
// both sides of the tracing-overhead comparison, and each round's
// resource usage is read around the round alone.  crashCopy, when
// non-nil, is called once at a mid-phase round boundary, outside every
// round's clock and usage reading.
func (e *environment) timedPhase(crashCopy func() error) (time.Duration, error) {
	w := e.cfg.w
	runtime.GC()
	phaseStart := time.Now()
	for r := 0; r < e.cfg.rounds; r++ {
		recording := e.tr != nil && r%2 == 1
		var before usage
		if e.tr != nil {
			e.tr.on.Store(recording)
			before = readUsage()
		}
		roundStart := time.Now()
		for k := 0; k < w.opsPerRound; k++ {
			i := w.warmups + r*w.opsPerRound + k
			var opSpan int32
			if recording {
				e.tr.curOp.Store(int32(i))
				opSpan = e.tr.begin(seamOp, w.name, -1)
			}
			elapsed, answer, err := e.runOp(i)
			if recording {
				e.tr.end(opSpan, nil)
				e.tr.flushConns()
				e.tr.curOp.Store(-1)
			}
			e.lat[r][k] = elapsed
			e.attempted++
			if err != nil {
				e.failed++
				e.problem("round %d op %d: %v", r, k, err)
				continue
			}
			if calls := e.ops[i]; k == 0 && calls[len(calls)-1].path != "/v1/records" {
				// The round's first query is re-asked of the oracle after
				// the run.  (A publish's answer is checked in runOp; what
				// publish-durable stored is read back after the phase.)
				e.verify = append(e.verify, verification{what: fmt.Sprintf("round %d first op", r),
					call: calls[len(calls)-1], acked: e.acked, got: answer})
			}
		}
		if err := e.fleet.compactAll(); err != nil {
			return 0, err
		}
		e.walls[r] = time.Since(roundStart)
		if e.tr != nil {
			e.usage[r] = readUsage().since(before)
		}
		if crashCopy != nil && r == e.cfg.rounds/2 {
			if err := crashCopy(); err != nil {
				return 0, err
			}
		}
	}
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	return time.Since(phaseStart), nil
}

// copyTree copies every regular file under src to dst without closing or
// flushing anything: what a crash at this instant would leave on disk.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
