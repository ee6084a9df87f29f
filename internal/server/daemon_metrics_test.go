package server

import (
	"bytes"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/engine"
	"sketchprivacy/internal/obs"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/stats"
	"sketchprivacy/internal/store"
)

// lintFamilies renders reg, holds the text to the exposition lint, and
// returns the parsed families keyed by name.
func lintFamilies(t *testing.T, reg *obs.Registry) map[string]*obs.Family {
	t.Helper()
	var sb strings.Builder
	if err := reg.RenderText(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	if errs := obs.Lint(sb.String()); len(errs) > 0 {
		t.Fatalf("exposition lint: %v\n%s", errs, sb.String())
	}
	families, err := obs.ParseText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*obs.Family, len(families))
	for _, f := range families {
		byName[f.Name] = f
	}
	return byName
}

// histNonZero asserts the named histogram family rendered with a
// non-zero _count.
func histNonZero(t *testing.T, fams map[string]*obs.Family, name string) {
	t.Helper()
	f := fams[name]
	if f == nil {
		t.Fatalf("histogram %s missing", name)
	}
	for _, s := range f.Samples {
		if s.Name == name+"_count" {
			if s.Value == 0 {
				t.Fatalf("%s_count = 0, want non-zero", name)
			}
			return
		}
	}
	t.Fatalf("%s rendered without _count", name)
}

// TestNodeMetricsExpositionLintClean wires engine, durable store and
// server onto one registry exactly as sketchd -metrics-addr does, drives
// a fsynced publish and a plan query through the TCP path, and asserts
// the headline hot-path histograms are non-zero and the whole exposition
// passes the format lint.
func TestNodeMetricsExpositionLintClean(t *testing.T) {
	h := prf.NewBiased(bytes.Repeat([]byte{0x11}, prf.MinKeyBytes), prf.MustProb(0.3))
	params := sketch.MustParams(0.3, 10)
	eng, err := engine.New(h, params)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.SetMetrics(reg)
	st, err := store.Open(store.Options{Dir: t.TempDir(), Shards: 2, Fsync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := eng.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	srv.RegisterMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sk, err := sketch.NewSketcher(h, params)
	if err != nil {
		t.Fatal(err)
	}
	subset := bitvec.MustSubset(0, 1)
	rng := stats.NewRNG(7)
	const published = 32
	for i := 1; i <= published; i++ {
		s, err := sk.Sketch(rng, bitvec.Profile{ID: bitvec.UserID(i), Data: bitvec.MustFromString("1010")}, subset)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Publish(sketch.Published{ID: bitvec.UserID(i), Subset: subset, S: s}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Estimator().Fraction(cli, subset, bitvec.MustFromString("10")); err != nil {
		t.Fatal(err)
	}

	fams := lintFamilies(t, reg)
	histNonZero(t, fams, "store_wal_append_seconds")
	histNonZero(t, fams, "store_wal_fsync_seconds")
	histNonZero(t, fams, "engine_plan_exec_seconds")
	for name, want := range map[string]float64{
		"engine_ingest_total":           published,
		"engine_plan_evaluations_total": published,     // the one pair over every record
		"server_frames_total":           published + 1, // publishes plus the query
	} {
		f := fams[name]
		if f == nil {
			t.Fatalf("series %s missing", name)
		}
		if len(f.Samples) != 1 || f.Samples[0].Value < want {
			t.Fatalf("%s = %+v, want >= %v", name, f.Samples, want)
		}
	}
	// The query left one bitmap in the plan cache — one word over the 32
	// records, unfiltered, so no keep mask — charged its word, its key and
	// the fixed overhead of an entry.
	key := query.FractionEval{Subset: subset, Value: bitvec.MustFromString("10")}.Key()
	entries, size := fams["engine_plan_cache_entries"], fams["engine_plan_cache_bytes"]
	if entries == nil || size == nil || len(entries.Samples) != 1 || len(size.Samples) != 1 {
		t.Fatalf("engine_plan_cache_entries %+v, engine_plan_cache_bytes %+v: want one sample each", entries, size)
	}
	if n, b := entries.Samples[0].Value, size.Samples[0].Value; n != 1 || b <= float64(8+len(key)) || b > float64(8+len(key)+1024) {
		t.Fatalf("the plan cache holds %v entries of %v bytes, want 1 of 8 + %d key bytes + an entry's overhead", n, b, len(key))
	}
	// Computed once and not asked for again, the bitmap waits on
	// probation: all of the charge, nothing admitted, nothing rejected.
	for name, want := range map[string]float64{
		"engine_plan_cache_probation_bytes": size.Samples[0].Value,
		"engine_plan_cache_admitted_total":  0,
		"engine_plan_cache_rejected_total":  0,
	} {
		if f := fams[name]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != want {
			t.Fatalf("%s = %+v, want one sample of %v", name, f, want)
		}
	}
	// The per-shard store gauges carry a shard label per configured shard.
	f := fams["store_wal_records"]
	if f == nil {
		t.Fatal("series store_wal_records missing")
	}
	total := 0.0
	for _, s := range f.Samples {
		if s.Label("shard") == "" {
			t.Fatalf("store_wal_records sample without shard label: %+v", s)
		}
		total += s.Value
	}
	if len(f.Samples) != 2 || total != published {
		t.Fatalf("store_wal_records = %+v (total %v), want %d across 2 shards", f.Samples, total, published)
	}
}
