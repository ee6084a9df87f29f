package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sketchprivacy/internal/gateway"
	"sketchprivacy/internal/store"
)

// The wrappers must expose the optional surfaces the wrapped values do, or
// the engine and the gateway would silently take other code paths in a
// traced run.
var (
	_ store.Store                 = tracedStore{}
	_ store.BatchAppender         = tracedStore{}
	_ store.BatchReader           = tracedStore{}
	_ gateway.Backend             = tracedBackend{}
	_ gateway.AdminBackend        = tracedBackend{}
	_ gateway.FanoutCounterSource = tracedBackend{}
)

// smoke shrinks a workload to a scale tier-1 can afford: the same fleet,
// ops, gates and restart cycles over a small population and a few short
// rounds.
func smoke(t *testing.T, name string, seed uint64) runConfig {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.opsPerRound = 3
	w.warmups = min(w.warmups, 2*w.opsPerRound) // query-cached: its deck, twice
	if w.freshPerOp > 0 {
		w.warmups = 1
	}
	return runConfig{w: w, seed: seed, users: 1000, rounds: 2, restarts: 2, dir: t.TempDir()}
}

func mustRun(t *testing.T, cfg runConfig) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.w.name, err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s: %s", cfg.w.name, p)
	}
	if res.Failed != 0 || res.Attempted != cfg.rounds*cfg.w.opsPerRound {
		t.Errorf("%s: %d ops attempted, %d failed; want %d and 0", cfg.w.name, res.Attempted, res.Failed, cfg.rounds*cfg.w.opsPerRound)
	}
	return res
}

// get returns a reported metric's value by name.
func (r *result) get(name string) (float64, bool) {
	for _, set := range [][]metric{r.EndToEnd, r.PerLayer, r.Counts} {
		for _, m := range set {
			if m.Name == name {
				return m.Value, true
			}
		}
	}
	return 0, false
}

// exactMetrics are the counts that must repeat exactly from run to run:
// they are what a later issue may rest a claim on without a timing.
var exactMetrics = []string{
	"records_stored", "disk_bytes", "records_node_0", "records_node_1", "records_node_2",
	"disk_bytes_per_record",
	"cluster.roundtrips_per_op", "wire.bytes_out_per_op", "wire.bytes_in_per_op",
	"gateway.request_bytes_per_op", "gateway.response_bytes_per_op",
	"query.entries_per_op", "prf.evals_per_op", "engine.cache_hit_ratio",
	"store.rolls", "store.compactions",
}

// closeMetrics repeat within 2 %: how many records share a group commit
// depends on which publishes arrive together.
var closeMetrics = []string{"store_commits", "store.fsyncs_per_record"}

// layerExpectations pin what proves the workloads stress the layers they
// claim to: the cache ratios and the exact fan-out shapes.
var layerExpectations = map[string]map[string]float64{
	"publish-durable": {"cluster.roundtrips_per_op": 512, "query.entries_per_op": 0, "prf.evals_per_op": 0},
	"query-scan":      {"cluster.roundtrips_per_op": 3, "query.entries_per_op": 1, "engine.cache_hit_ratio": 0},
	"query-cached":    {"cluster.roundtrips_per_op": 3, "query.entries_per_op": 11, "engine.cache_hit_ratio": 1, "prf.evals_per_op": 0},
	"mixed-fresh":     {"cluster.roundtrips_per_op": 67, "query.entries_per_op": 1, "engine.cache_hit_ratio": 0},
}

func within(a, b, tolerance float64) bool {
	return math.Abs(a-b) <= tolerance*math.Max(math.Abs(a), math.Abs(b))
}

// TestSmoke runs every workload at smoke scale with every correctness
// gate — oracle, paper utility, restart, crash copy — and holds the
// harness to its own rules: same seed, same counts; another seed, other
// data but the same op counts; wrappers on or off, the same answers and
// the same number of group commits.
func TestSmoke(t *testing.T) {
	listed := readBenchmarkJSON(t)
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if listed.Workloads[i].Name != w.name || listed.Workloads[i].Why != w.why {
				t.Errorf("BENCHMARK.json workload %d is %q (%q), the program's is %q (%q)", i, listed.Workloads[i].Name, listed.Workloads[i].Why, w.name, w.why)
			}
			traced := smoke(t, w.name, 1)
			traced.trace = true
			traced.traceOut = filepath.Join(t.TempDir(), "spans.json")
			a := mustRun(t, traced)
			if info, err := os.Stat(traced.traceOut); err != nil || info.Size() == 0 {
				t.Errorf("the traced run wrote no spans: %v", err)
			}
			checkListed(t, "end_to_end", listed.EndToEnd, a.EndToEnd)
			checkListed(t, "per_layer", listed.PerLayer, a.PerLayer)
			for name, want := range layerExpectations[w.name] {
				if got, ok := a.get(name); !ok || got != want {
					t.Errorf("%s = %v, want %v", name, got, want)
				}
			}

			traced.dir = t.TempDir()
			b := mustRun(t, traced)
			for _, name := range exactMetrics {
				va, ok := a.get(name)
				vb, _ := b.get(name)
				if !ok {
					t.Errorf("traced run does not report %s", name)
				} else if va != vb {
					t.Errorf("%s differs between two runs of seed 1: %v and %v", name, va, vb)
				}
			}

			// Registries without wrappers: the untraced code path with
			// the same counters attached.
			bare := smoke(t, w.name, 1)
			bare.registries = true
			c := mustRun(t, bare)
			if len(c.Answers) == 0 || len(c.Answers) != len(a.Answers) {
				t.Fatalf("%d answers untraced, %d traced", len(c.Answers), len(a.Answers))
			}
			for i := range c.Answers {
				if !bytes.Equal(c.Answers[i], a.Answers[i]) {
					t.Errorf("answer %d differs: %s untraced, %s traced", i, c.Answers[i], a.Answers[i])
				}
			}
			for _, name := range []string{"disk_bytes", "records_stored"} {
				va, _ := a.get(name)
				vc, _ := c.get(name)
				if va != vc {
					t.Errorf("%s is %v with the trace wrappers and %v without", name, va, vc)
				}
			}
			for _, name := range closeMetrics {
				va, _ := a.get(name)
				vb, _ := b.get(name)
				if !within(va, vb, 0.02) {
					t.Errorf("%s differs by more than 2 %% between two runs of seed 1: %v and %v", name, va, vb)
				}
				if vc, ok := c.get(name); ok && !within(va, vc, 0.02) {
					t.Errorf("%s is %v with the trace wrappers and %v without", name, va, vc)
				}
			}

			other := mustRun(t, smoke(t, w.name, 2))
			if other.Attempted != a.Attempted {
				t.Errorf("seed 2 attempted %d ops, seed 1 %d", other.Attempted, a.Attempted)
			}
			if len(other.Answers) != len(c.Answers) || bytes.Equal(bytes.Join(other.Answers, nil), bytes.Join(c.Answers, nil)) {
				t.Errorf("seed 2 gave the answers of seed 1: the seed does not reach the data")
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with: same workloads and reasons, same metric names and units.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the program's reference is %d", file.RunSeconds, refSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	return file
}

func checkListed(t *testing.T, kind string, listed []struct{ Name, Unit string }, reported []metric) {
	t.Helper()
	if len(listed) != len(reported) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, a run reports %d", kind, len(listed), len(reported))
		return
	}
	for i, m := range reported {
		if listed[i].Name != m.Name || listed[i].Unit != m.Unit {
			t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], a run reports %s [%s]", kind, i, listed[i].Name, listed[i].Unit, m.Name, m.Unit)
		}
	}
}
