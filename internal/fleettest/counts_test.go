package fleettest_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"sketchprivacy/internal/cluster"
	"sketchprivacy/internal/fleettest"
	"sketchprivacy/internal/store"
	"sketchprivacy/internal/wire"
)

// countsFile pins what the whole stack does per operation.  Every count is
// lower-is-better.  An "exact" count must read as pinned: more fails as a
// regression, fewer fails until it is re-pinned, so a gain is kept.  An
// "at_most" count depends on timing and is bounded instead.
type countsFile struct {
	Exact  map[string]float64 `json:"exact"`
	AtMost map[string]float64 `json:"at_most"`
}

// opcodes names the router→node requests the corpus sends.
var opcodes = map[byte]string{wire.TypePublish: "publish", wire.TypePlanQuery: "plan_query"}

// TestFleetCounts runs a fixed small corpus through the shapes of the
// benchmark's four workloads on three durable, fsynced nodes at RF 2 behind
// the gateway, and holds what each operation costs to
// testdata/fleet_counts.json: the router→node requests by opcode and the
// wire bytes both ways (connection control left out, read at the proxies),
// the evaluations of H the nodes made, the group commits their stores
// wrote, and the disk bytes per stored record once the stores are flushed.
//
// A write's commits are bounded, not pinned: the router sends a batch's
// records up to 16 at a time, so how many share a commit window is up to
// the scheduler; the bound is one commit per replica written.  Every other
// count reads the same on every run, whichever nodes the ring's ephemeral
// addresses put a record on.  Hedging is held off, since a hedge would add
// requests on a slow run.
func TestFleetCounts(t *testing.T) {
	nodes := make([]*fleettest.Node, 3)
	for i := range nodes {
		nodes[i] = fleettest.StartNode(t, &store.Options{Dir: t.TempDir(), Fsync: true, CompactInterval: -1})
	}
	fleettest.Proxied(t, nodes...)
	r := fleettest.StartRouter(t, nodes, 2, func(cfg *cluster.Config) { cfg.HedgeDelay = time.Hour })
	g := fleettest.StartGateway(t, r, "ratchet")

	got := make(map[string]float64)
	// measure runs n operations of one shape and records what they cost,
	// per operation.
	measure := func(shape string, n int, op func(i int)) {
		t.Helper()
		for _, node := range nodes {
			node.Proxy.Reset()
		}
		evals := fleettest.Sum(t, "engine_plan_evaluations_total", nodes...)
		commits := fleettest.Sum(t, "store_commits_total", nodes...)
		for i := 0; i < n; i++ {
			op(i)
		}
		per := func(v float64) float64 { return v / float64(n) }
		for _, node := range nodes {
			for msgType, c := range node.Proxy.Requests() {
				name, ok := opcodes[msgType]
				if !ok {
					name = fmt.Sprintf("type_%d", msgType)
				}
				got[shape+".requests."+name] += per(float64(c))
			}
			out, in := node.Proxy.Bytes()
			got[shape+".bytes_out"] += per(float64(out))
			got[shape+".bytes_in"] += per(float64(in))
		}
		got[shape+".evaluations"] = per(fleettest.Sum(t, "engine_plan_evaluations_total", nodes...) - evals)
		got[shape+".commits"] = per(fleettest.Sum(t, "store_commits_total", nodes...) - commits)
	}
	post := func(path string, body any) {
		t.Helper()
		if status, raw := g.Call(t, path, body); status != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d: %s", path, status, raw)
		}
	}
	// records returns users [from, to) publishing the given subsets of a
	// 4-bit field, their values spread over the field.
	records := func(from, to int, subsets ...[]int) map[string]any {
		var recs []map[string]any
		for id := from; id < to; id++ {
			profile := fmt.Sprintf("%04b", (id*7+3)%16)
			for _, b := range subsets {
				recs = append(recs, map[string]any{"id": id, "subset": b, "profile": profile})
			}
		}
		return map[string]any{"records": recs}
	}
	prefixes := [][]int{{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}}

	// publish-durable: batches of 256 records, 64 users × four prefixes.
	measure("publish", 2, func(i int) { post("/v1/records", records(1+64*i, 65+64*i, prefixes...)) })
	// query-scan: a fraction on a value never asked before.
	measure("scan", 4, func(i int) {
		post("/v1/query/fraction", map[string]any{"subset": prefixes[3], "value": fmt.Sprintf("%04b", i)})
	})
	// query-cached: the same deck of intervals, asked twice.
	deck := func(int) {
		for _, lo := range []int{1, 4, 9} {
			post("/v1/query/interval", map[string]any{"field": map[string]any{"offset": 0, "width": 4}, "lo": lo, "hi": lo + 5})
		}
	}
	measure("deck_first", 1, deck)
	measure("deck_again", 1, deck)
	// mixed-fresh: 32 new users write the widest prefix, then its
	// fraction is asked.
	fresh := 129
	measure("fresh", 2, func(int) {
		post("/v1/records", records(fresh, fresh+32, prefixes[3]))
		post("/v1/query/fraction", map[string]any{"subset": prefixes[3], "value": "1011"})
		fresh += 32
	})

	stored, disk := 0, int64(0)
	for _, n := range nodes {
		if err := n.Store.Flush(); err != nil {
			t.Fatal(err)
		}
		stored += n.Eng.Sketches()
		b, err := dirBytes(n.Store.Stats().Dir)
		if err != nil {
			t.Fatal(err)
		}
		disk += b
	}
	if want := 2 * (128*len(prefixes) + 64); stored != want {
		t.Fatalf("the nodes hold %d records, want RF 2 × %d", stored, want/2)
	}
	got["disk_bytes_per_record"] = float64(disk) / float64(stored)

	measured, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("measured counts:\n%s", measured)
	raw, err := os.ReadFile(filepath.Join("testdata", "fleet_counts.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned countsFile
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := got[k]
		want, exact := pinned.Exact[k]
		bound, bounded := pinned.AtMost[k]
		switch {
		case exact && v > want:
			t.Errorf("%s = %v, pinned at %v: it got worse", k, v, want)
		case exact && v < want:
			t.Errorf("%s = %v, pinned at %v: it improved — re-pin it in testdata/fleet_counts.json and list both values in CHANGES.md", k, v, want)
		case bounded && v > bound:
			t.Errorf("%s = %v, bounded at %v: it got worse", k, v, bound)
		case !exact && !bounded:
			t.Errorf("%s = %v is pinned nowhere in testdata/fleet_counts.json", k, v)
		}
	}
	for k := range pinned.Exact {
		if _, ok := got[k]; !ok {
			t.Errorf("pinned count %s was not measured", k)
		}
	}
	for k := range pinned.AtMost {
		if _, ok := got[k]; !ok {
			t.Errorf("bounded count %s was not measured", k)
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
