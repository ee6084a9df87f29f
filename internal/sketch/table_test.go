package sketch

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"sketchprivacy/internal/bitvec"
)

// testRun returns records of one subset as the run a store would replay
// them as: ids ascending, the first of a repeated id kept.
func testRun(b bitvec.Subset, ps []Published) Run {
	ps = append([]Published(nil), ps...)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
	r := Run{Subset: b}
	var ids IDBuilder
	for i, p := range ps {
		if i == 0 || ps[i-1].ID != p.ID {
			ids.Append(p.ID)
			r.Keys = r.Keys.Append(p.S.Pack())
		}
	}
	r.IDs = ids.IDs()
	return r
}

// landTestBatch probes and lands a batch of eight users from id up, three
// apart, each with the sketch (key, length); users the table holds are
// re-published as they are held, so the batch is never refused.
func landTestBatch(t *testing.T, tab *Table, b bitvec.Subset, id bitvec.UserID, key uint64, length int) {
	t.Helper()
	batch := make([]Published, 8)
	for j := range batch {
		p := Published{ID: id + bitvec.UserID(3*j), Subset: b, S: Sketch{Key: key, Length: length}}
		if held, ok := tab.Get(p.ID, b); ok {
			p.S = held
		}
		batch[j] = p
	}
	bt, err := tab.Probe(batch)
	if err != nil {
		t.Fatal(err)
	}
	tab.Land(bt)
}

// viewWithin reports whether every record of old is in v with the same
// sketch.
func viewWithin(old, v View) bool {
	j := 0
	for i := 0; i < old.Len(); i++ {
		for j < v.Len() && v.ID(j) < old.ID(i) {
			j++
		}
		if j == v.Len() || v.ID(j) != old.ID(i) || v.Sketch(j) != old.Sketch(i) {
			return false
		}
	}
	return true
}

// testWords returns a column of the given Pack words.
func testWords(words ...uint64) Words {
	var k Words
	for _, w := range words {
		k = k.Append(w)
	}
	return k
}

func TestTableAddGetAndDuplicates(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(0, 2)
	p := Published{ID: 1, Subset: b, S: Sketch{Key: 3, Length: 4}}
	if err := tab.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(p); err == nil {
		t.Error("duplicate (user, subset) accepted")
	}
	if err := tab.Add(Published{ID: 2, Subset: b, S: Sketch{Key: 99, Length: 4}}); err == nil {
		t.Error("invalid sketch accepted")
	}
	got, ok := tab.Get(1, b)
	if !ok || got != p.S {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if _, ok := tab.Get(1, bitvec.MustSubset(5)); ok {
		t.Error("Get found a sketch for an unknown subset")
	}
	if _, ok := tab.Get(9, b); ok {
		t.Error("Get found a sketch for an unknown user")
	}
}

func TestTableForSubsetSortedAndCounts(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(1)
	for _, id := range []bitvec.UserID{5, 2, 9, 1} {
		if err := tab.Add(Published{ID: id, Subset: b, S: Sketch{Key: uint64(id), Length: 6}}); err != nil {
			t.Fatal(err)
		}
	}
	got := tab.Snapshot(b)
	if len(got) != 4 {
		t.Fatalf("Snapshot returned %d records", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Error("Snapshot not sorted by user id")
		}
	}
	if tab.CountForSubset(b) != 4 {
		t.Error("CountForSubset wrong")
	}
	if tab.CountForSubset(bitvec.MustSubset(9)) != 0 {
		t.Error("CountForSubset non-zero for unknown subset")
	}
	if tab.Len() != 4 {
		t.Errorf("Len = %d", tab.Len())
	}
	if tab.Snapshot(bitvec.MustSubset(9)) != nil {
		t.Error("Snapshot of unknown subset should be nil")
	}
}

func TestTableSubsetsAndUsersWithAll(t *testing.T) {
	tab := NewTable()
	b1 := bitvec.MustSubset(0)
	b2 := bitvec.MustSubset(1, 2)
	add := func(id bitvec.UserID, b bitvec.Subset) {
		t.Helper()
		if err := tab.Add(Published{ID: id, Subset: b, S: Sketch{Key: 1, Length: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, b1)
	add(2, b1)
	add(3, b1)
	add(1, b2)
	add(3, b2)

	subs := tab.Subsets()
	if len(subs) != 2 {
		t.Fatalf("Subsets returned %d", len(subs))
	}
	listed := []bitvec.Subset{b1, bitvec.MustSubset(9), b2, b1}
	views := tab.Views(listed, false)
	for i, want := range []int{3, 0, 2, 3} {
		if views[i].Len() != want || (views[i].Gen() == 0) != (want == 0) || !views[i].Subset().Equal(listed[i]) {
			t.Errorf("Views: view %d holds %d records of %v at generation %d, want %d of %v", i, views[i].Len(), views[i].Subset(), views[i].Gen(), want, listed[i])
		}
	}
	if views[2].ID(0) != 1 || views[2].ID(1) != 3 {
		t.Errorf("Views: the view of %v reads %v", b2, views[2])
	}
	if len(tab.Views(nil, false)) != 0 || len(tab.Views([]bitvec.Subset{}, false)) != 0 {
		t.Error("Views of no list, nil or empty, should name no subset")
	}
	if views = tab.Views([]bitvec.Subset{b2}, true); len(views) != 3 || !views[0].Subset().Equal(b2) || !views[1].Subset().Equal(subs[0]) || !views[2].Subset().Equal(subs[1]) {
		t.Errorf("Views with all set should hold the listed subset and then every subset, in Subsets order; got %v", views)
	}
}

func TestTableAddAllStopsOnError(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(0)
	batch := []Published{
		{ID: 1, Subset: b, S: Sketch{Key: 0, Length: 2}},
		{ID: 1, Subset: b, S: Sketch{Key: 1, Length: 2}}, // duplicate
		{ID: 2, Subset: b, S: Sketch{Key: 1, Length: 2}},
	}
	if err := tab.AddAll(batch); err == nil {
		t.Fatal("AddAll should fail on the duplicate")
	}
	if tab.Len() != 1 {
		t.Errorf("Len after failed AddAll = %d, want 1", tab.Len())
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(0, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := bitvec.UserID(g*1000 + i)
				_ = tab.Add(Published{ID: id, Subset: b, S: Sketch{Key: 2, Length: 4}})
				tab.Get(id, b)
				tab.CountForSubset(b)
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", tab.Len(), 8*200)
	}
}

// tableOracle is the obviously-correct reference the columnar table is
// driven against: one map per subset, no ordering, no sharing.
type tableOracle map[string]map[bitvec.UserID]Sketch

func (o tableOracle) add(p Published) bool {
	m := o[p.Subset.Key()]
	if m == nil {
		m = make(map[bitvec.UserID]Sketch)
		o[p.Subset.Key()] = m
	}
	if _, dup := m[p.ID]; dup {
		return false
	}
	m[p.ID] = p.S
	return true
}

// sorted returns the oracle's records for b in id order.
func (o tableOracle) sorted(b bitvec.Subset) []Published {
	var out []Published
	for id, s := range o[b.Key()] {
		out = append(out, Published{ID: id, Subset: b, S: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// checkWords drives copies of the column k, which holds want, the ways a
// column is driven between a table and a store, and fails the test unless
// each reads as a slice of sketches would: a word of another length
// re-encodes a column of one length, every earlier sketch as it was;
// slices cut at any bit are appended to columns ending at any other, of
// the same shape and of another; Set and Swap write one word each.  k
// itself must read as it did.
func checkWords(t *testing.T, k Words, want []Sketch, rng *rand.Rand) {
	t.Helper()
	same := func(what string, got Words, want []Sketch) {
		t.Helper()
		if got.Len() != len(want) {
			t.Fatalf("%s: %d words, want %d", what, got.Len(), len(want))
		}
		for i, s := range want {
			if got.Sketch(i) != s || got.At(i) != s.Pack() {
				t.Fatalf("%s: word %d of %d reads %v, want %v", what, i, len(want), got.Sketch(i), s)
			}
		}
	}
	n := len(want)
	foreign := Sketch{Key: uint64(rng.Intn(2)), Length: 1 + rng.Intn(MaxLength)}
	if k.shape == Shape(foreign.Length) {
		foreign.Length = foreign.Length%MaxLength + 1
	}
	grown := k.Clone().Append(foreign.Pack())
	if k.shape != 0 && k.shape <= MaxLength && grown.shape == k.shape {
		t.Fatalf("a column of %d-bit sketches kept its shape for a %d-bit one", k.shape, foreign.Length)
	}
	grownWant := append(slices.Clone(want), foreign)
	same("a column that met another length", grown, grownWant)
	for j := 0; j < 3; j++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		into := rng.Intn(n + 1)
		same("a slice appended to a column of another shape", grown.Slice(into/3, into).Clone().AppendWords(k.Slice(lo, hi)), append(slices.Clone(grownWant[into/3:into]), want[lo:hi]...))
		same("a slice appended to a slice of its shape", k.Slice(into/3, into).Clone().AppendWords(k.Slice(lo, hi)), append(slices.Clone(want[into/3:into]), want[lo:hi]...))
	}
	if n > 0 {
		written, model := k.Clone(), slices.Clone(want)
		for j := 0; j < 8; j++ {
			a, b := rng.Intn(n), rng.Intn(n)
			written.Swap(a, b)
			model[a], model[b] = model[b], model[a]
			written.Set(b, written.At(a))
			model[b] = model[a]
		}
		same("a column written by Set and Swap", written, model)
	}
	same("the column driven", k, want)
}

// TestTableMatchesMapOracle drives the table and a plain map through the
// same seeded interleaving of Add, AddNew, batches (Probe and Land: repeats
// within a batch, identical re-publishes, now and then a conflict or an
// invalid sketch), LoadRun (shard-like runs, dense and sparse, short and
// long, repeating stored ids), Get, Views and reads, and requires identical
// answers throughout.  Ids are drawn from a small range so duplicates of
// present records are common, and the write bursts between reads are long
// enough that the tail folds on its own limit as well as on reads, so
// duplicates meet both the sorted run and the tail.  After every step the
// column has only grown: no CountForSubset falls, a sample of the records of
// the view each subset last read is held with the same sketch, and at every
// read the whole of that older view is in the fresh one, and its words
// hold up under checkWords.  Sketch lengths are drawn from a set covering
// every word width, 1 to 5 bytes, that widens as the steps go by: columns
// start at one length, hold mixed lengths in run and tail, and are
// re-encoded wider several times.  The first steps are all loads, so runs
// land on empty columns too.
func TestTableMatchesMapOracle(t *testing.T) {
	subsets := []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(1, 2), bitvec.Range(0, 5)}
	lengths := []int{1, 8, 9, 16, 17, 24, 30}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, oracle := NewTable(), tableOracle{}
		gens := make(map[string]uint64)
		wrote := make(map[string]bool)
		step := 0
		record := func() Published {
			length := lengths[rng.Intn(1+min(step/350, len(lengths)-1))]
			return Published{
				ID:     bitvec.UserID(rng.Intn(6000)),
				Subset: subsets[rng.Intn(len(subsets))],
				S:      Sketch{Key: rng.Uint64() % (1 << uint(length)), Length: length},
			}
		}
		// A column only grows: what a view held stays held, as it was.
		heldViews, counts := make(map[string]View), make(map[string]int)
		sample := rand.New(rand.NewSource(seed))
		grown := func() {
			t.Helper()
			for _, b := range subsets {
				n, old := tab.CountForSubset(b), heldViews[b.Key()]
				if n < counts[b.Key()] {
					t.Fatalf("seed %d step %d subset %v: CountForSubset fell from %d to %d", seed, step, b, counts[b.Key()], n)
				}
				counts[b.Key()] = n
				for k := min(4, old.Len()); k > 0; k-- {
					i := sample.Intn(old.Len())
					if got, ok := tab.Get(old.ID(i), b); !ok || got != old.Sketch(i) {
						t.Fatalf("seed %d step %d subset %v: user %v, held as %v by an earlier view, reads (%v, %v)", seed, step, b, old.ID(i), old.Sketch(i), got, ok)
					}
				}
			}
		}
		check := func(b bitvec.Subset) {
			t.Helper()
			want := oracle.sorted(b)
			v, gen := tab.View(b)
			if old := heldViews[b.Key()]; !viewWithin(old, v) {
				t.Fatalf("seed %d step %d subset %v: a view of %d records taken earlier is not within the fresh one of %d", seed, step, b, old.Len(), v.Len())
			}
			heldViews[b.Key()] = v
			if v.Len() != len(want) || tab.CountForSubset(b) != len(want) {
				t.Fatalf("seed %d subset %v: view has %d records, CountForSubset %d, oracle %d", seed, b, v.Len(), tab.CountForSubset(b), len(want))
			}
			for i, p := range want {
				if v.ID(i) != p.ID || v.Sketch(i) != p.S {
					t.Fatalf("seed %d subset %v record %d: view (%v, %v), oracle (%v, %v)", seed, b, i, v.ID(i), v.Sketch(i), p.ID, p.S)
				}
			}
			if got := tab.Snapshot(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d subset %v: Snapshot differs from the oracle", seed, b)
			}
			sketches := make([]Sketch, len(want))
			for i, p := range want {
				sketches[i] = p.S
			}
			checkWords(t, v.keys, sketches, sample)
			if wrote[b.Key()] == (gen == gens[b.Key()]) {
				t.Fatalf("seed %d subset %v: generation %d after %d, wrote=%v", seed, b, gen, gens[b.Key()], wrote[b.Key()])
			}
			gens[b.Key()], wrote[b.Key()] = gen, false
		}
		for ; step < 2500; step++ {
			op := rng.Intn(100)
			if step < 3 {
				op = 60 // a load
			}
			switch {
			case op < 30:
				p := record()
				ok := oracle.add(p)
				if err := tab.Add(p); (err == nil) != ok {
					t.Fatalf("seed %d step %d: Add(%v) = %v, oracle added=%v", seed, step, p, err, ok)
				}
				wrote[p.Subset.Key()] = wrote[p.Subset.Key()] || ok
			case op < 35:
				// An ingested batch: mostly new records, some repeated
				// within it and some re-publishing what the table holds —
				// identical but for one in a few hundred, a conflict — and
				// one in a thousand invalid, its sketches of any width.  The
				// oracle admits in input order, skips what it holds
				// identically and stops at the first conflict or invalid
				// sketch.
				batch := make([]Published, 1+rng.Intn(300))
				planned := tableOracle{}
				for i := range batch {
					p := record()
					if rng.Intn(3) == 0 {
						length := lengths[rng.Intn(len(lengths))]
						p.S = Sketch{Key: rng.Uint64() % (1 << uint(length)), Length: length}
					}
					if i > 0 && rng.Intn(8) == 0 {
						p.ID, p.Subset = batch[rng.Intn(i)].ID, batch[rng.Intn(i)].Subset
					}
					held, had := oracle[p.Subset.Key()][p.ID]
					if !had {
						held, had = planned[p.Subset.Key()][p.ID]
					}
					if had && rng.Intn(300) != 0 {
						p.S = held
					}
					if rng.Intn(1000) == 0 {
						p.S.Key = 1 << uint(p.S.Length)
					}
					planned.add(p)
					batch[i] = p
				}
				admitted, refused := 0, false
				for _, p := range batch {
					held, had := oracle[p.Subset.Key()][p.ID]
					if !p.S.Valid() || (had && held != p.S) {
						refused = true
						break
					}
					if !had {
						oracle.add(p)
						wrote[p.Subset.Key()] = true
						admitted++
					}
				}
				b, err := tab.Probe(batch)
				if (err != nil) != refused || b.Len() != admitted {
					t.Fatalf("seed %d step %d: Probe admitted %d records, %v; the oracle %d, refused=%v", seed, step, b.Len(), err, admitted, refused)
				}
				if got := tab.Land(b); got != admitted {
					t.Fatalf("seed %d step %d: Land added %d records, the oracle %d", seed, step, got, admitted)
				}
			case op < 60:
				p := record()
				held, had := oracle[p.Subset.Key()][p.ID]
				ok := oracle.add(p)
				existing, added, err := tab.AddNew(&p)
				if err != nil || added != ok || (had && existing != held) {
					t.Fatalf("seed %d step %d: AddNew = (%v, %v, %v), oracle held (%v, %v)", seed, step, existing, added, err, held, had)
				}
				wrote[p.Subset.Key()] = wrote[p.Subset.Key()] || ok
			case op < 70:
				// A replayed batch: a few runs sharing a subset.  Most are
				// strictly ascending like a shard's replay — interleaving
				// with the stored ids (one merge) or lying past them all (a
				// bulk append) — the rest repeat ids or arrive shuffled.
				var batch []Published
				for r := 1 + rng.Intn(3); r > 0; r-- {
					b := subsets[rng.Intn(len(subsets))]
					run := make([]Published, 1+rng.Intn(500))
					kind := rng.Intn(4)
					next := bitvec.UserID(rng.Intn(50))
					if kind == 0 {
						next += 6000 * bitvec.UserID(1+rng.Intn(40))
					}
					for i := range run {
						run[i] = record()
						run[i].Subset = b
						if kind < 2 {
							next += bitvec.UserID(1 + rng.Intn(16))
							run[i].ID = next
						}
					}
					if kind == 2 {
						sort.SliceStable(run, func(i, j int) bool { return run[i].ID < run[j].ID })
					}
					batch = append(batch, run...)
				}
				for _, p := range batch {
					oracle.add(p)
					wrote[p.Subset.Key()] = true
				}
				// Each stretch sharing a subset lands as one run.
				for len(batch) > 0 {
					n := 1
					for n < len(batch) && batch[n].Subset.Equal(batch[0].Subset) {
						n++
					}
					r := testRun(batch[0].Subset, batch[:n])
					batch = batch[n:]
					if err := tab.LoadRun(r); err != nil {
						t.Fatalf("seed %d step %d: LoadRun: %v", seed, step, err)
					}
				}
			case op < 95:
				p := record()
				want, had := oracle[p.Subset.Key()][p.ID]
				if got, ok := tab.Get(p.ID, p.Subset); ok != had || got != want {
					t.Fatalf("seed %d step %d: Get(%v, %v) = (%v, %v), oracle (%v, %v)", seed, step, p.ID, p.Subset, got, ok, want, had)
				}
			case op < 97:
				check(subsets[rng.Intn(len(subsets))])
			default:
				// Several views from one call: any selection, repeats and
				// all, reads as the oracle does, at View's generations; with
				// all set, every subset that holds records follows.
				var pick []bitvec.Subset
				for n := rng.Intn(5); n > 0; n-- {
					pick = append(pick, subsets[rng.Intn(len(subsets))])
				}
				all := rng.Intn(2) == 0
				views := tab.Views(pick, all)
				if all {
					pick = append(pick, tab.Subsets()...)
				}
				if len(views) != len(pick) {
					t.Fatalf("seed %d step %d: Views(%v, %v) holds %d views", seed, step, pick, all, len(views))
				}
				for j, b := range pick {
					want := oracle.sorted(b)
					if _, gen := tab.View(b); views[j].Len() != len(want) || views[j].Gen() != gen || !views[j].Subset().Equal(b) {
						t.Fatalf("seed %d step %d: Views(%v) view %d has %d records of %v at generation %d, oracle %d of %v at %d", seed, step, pick, j, views[j].Len(), views[j].Subset(), views[j].Gen(), len(want), b, gen)
					}
					for i, p := range want {
						if views[j].ID(i) != p.ID || views[j].Sketch(i) != p.S {
							t.Fatalf("seed %d step %d: Views(%v) view %d record %d is not the oracle's", seed, step, pick, j, i)
						}
					}
				}
			}
			grown()
		}
		total := 0
		var present []bitvec.Subset
		for _, b := range subsets {
			check(b)
			total += len(oracle[b.Key()])
			if len(oracle[b.Key()]) > 0 {
				present = append(present, b)
			}
		}
		sort.Slice(present, func(i, j int) bool { return present[i].Key() < present[j].Key() })
		if tab.Len() != total || !reflect.DeepEqual(tab.Subsets(), present) {
			t.Fatalf("seed %d: Len %d (oracle %d), or Subsets differ from the oracle", seed, tab.Len(), total)
		}
	}
}

// TestTableTailIndexFindsEveryRecord: the tail's flat index answers for
// every record across inserts that double it and folds that drop it, over
// dense ids and hashed ones alike: each held id is found with its own
// sketch, and none is admitted twice.
func TestTableTailIndexFindsEveryRecord(t *testing.T) {
	for _, shape := range []struct {
		name string
		id   func(u int) bitvec.UserID
	}{
		{"dense ids", func(u int) bitvec.UserID { return bitvec.UserID(7<<40 | u) }},
		{"hashed ids", func(u int) bitvec.UserID { return bitvec.UserID(uint64(u+1) * 0x9E3779B97F4A7C15) }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			tab := NewTable()
			b := bitvec.MustSubset(2)
			rng := rand.New(rand.NewSource(3))
			held := make(map[bitvec.UserID]Sketch)
			grew := false
			for step := 0; step < 6000; step++ {
				id := shape.id(rng.Intn(2000))
				_, had := held[id]
				s := Sketch{Key: uint64(rng.Intn(512)), Length: 9}
				if _, added, err := tab.AddNew(&Published{ID: id, Subset: b, S: s}); err != nil || added == had {
					t.Fatalf("step %d: AddNew(%v) = added %v, %v; held %v", step, id, added, err, had)
				}
				if !had {
					held[id] = s
				}
				grew = grew || len(tab.cols[b.Key()].index) > 2*tailFloor
				if step%10 != 0 {
					continue
				}
				for id, s := range held {
					if got, ok := tab.Get(id, b); !ok || got != s {
						t.Fatalf("step %d: Get(%v) = %v, %v; want %v", step, id, got, ok, s)
					}
				}
				if tab.Len() != len(held) {
					t.Fatalf("step %d: the table holds %d records, want %d", step, tab.Len(), len(held))
				}
			}
			if !grew {
				t.Fatal("the tail's index never doubled")
			}
		})
	}
}

// TestTableLoadInvalidSketchLoadsNothing pins LoadRun's all-or-nothing
// check: a valid record ahead of an invalid one is not loaded either.
func TestTableLoadInvalidSketchLoadsNothing(t *testing.T) {
	tab := NewTable()
	err := tab.LoadRun(Run{
		Subset: bitvec.MustSubset(0),
		IDs:    MakeIDs([]bitvec.UserID{1, 2}),
		Keys:   testWords(Sketch{Key: 1, Length: 4}.Pack(), Sketch{Key: 99, Length: 4}.Pack()),
	})
	if err == nil || tab.Len() != 0 {
		t.Fatalf("LoadRun with an invalid sketch = %v, table holds %d records", err, tab.Len())
	}
}

// TestTableLoadRun: a run lands as columns — onto an empty subset in one
// piece, onto a warm one first record wins — and a run that is not columns
// of valid sketches lands not at all.
func TestTableLoadRun(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(0, 2)
	word := func(key uint64) uint64 { return Sketch{Key: key, Length: 4}.Pack() }
	if err := tab.LoadRun(Run{Subset: b, IDs: MakeIDs([]bitvec.UserID{2, 5, 9}), Keys: testWords(word(1), word(2), word(3))}); err != nil {
		t.Fatal(err)
	}
	if err := tab.LoadRun(Run{Subset: b, IDs: MakeIDs([]bitvec.UserID{1, 5}), Keys: testWords(word(7), word(8))}); err != nil {
		t.Fatal(err)
	}
	v, _ := tab.View(b)
	want := map[bitvec.UserID]uint64{1: 7, 2: 1, 5: 2, 9: 3}
	if v.Len() != len(want) {
		t.Fatalf("table holds %d records, want %d", v.Len(), len(want))
	}
	for i := 0; i < v.Len(); i++ {
		if v.Sketch(i).Key != want[v.ID(i)] || (i > 0 && v.ID(i-1) >= v.ID(i)) {
			t.Fatalf("record %d = user %d sketch %v", i, v.ID(i), v.Sketch(i))
		}
	}
	for name, r := range map[string]Run{
		"a key past its length": {Subset: b, IDs: MakeIDs([]bitvec.UserID{20}), Keys: testWords(Sketch{Key: 99, Length: 4}.Pack())},
		"a length of zero":      {Subset: b, IDs: MakeIDs([]bitvec.UserID{20}), Keys: testWords(7 << 5)},
		"a length past 30":      {Subset: b, IDs: MakeIDs([]bitvec.UserID{20}), Keys: testWords(31)},
		"bits above the key":    {Subset: b, IDs: MakeIDs([]bitvec.UserID{20}), Keys: testWords(word(1) | 1<<34)},
		"a word of eight bytes": {Subset: b, IDs: MakeIDs([]bitvec.UserID{20}), Keys: testWords(word(1) | 1<<60)},
		"ragged columns":        {Subset: b, IDs: MakeIDs([]bitvec.UserID{20, 21}), Keys: testWords(word(1))},
	} {
		if err := tab.LoadRun(r); err == nil || tab.Len() != len(want) {
			t.Errorf("LoadRun of %s = %v, table holds %d records", name, err, tab.Len())
		}
	}
}

// TestTableViewIsImmutable holds a view across ten thousand later inserts
// and landed batches — which fold the tail many times, merge new runs, and
// outgrow the arrays the view aliases — and requires its ids and sketches to
// read exactly as they did when it was taken.
func TestTableViewIsImmutable(t *testing.T) {
	tab := NewTable()
	b := bitvec.Range(0, 3)
	rng := rand.New(rand.NewSource(11))
	for id := 0; id < 3000; id += 2 {
		if err := tab.Add(Published{ID: bitvec.UserID(id), Subset: b, S: Sketch{Key: uint64(id) % 512, Length: 9}}); err != nil {
			t.Fatal(err)
		}
	}
	held, gen := tab.View(b)
	want := held.AppendTo(nil)
	for step := 0; step < 10000; step++ {
		id := bitvec.UserID(rng.Intn(6000))
		switch rng.Intn(4) {
		case 0:
			landTestBatch(t, tab, b, id, uint64(step)%512, 9)
		case 1:
			tab.View(b)
		default:
			_, _, _ = tab.AddNew(&Published{ID: id, Subset: b, S: Sketch{Key: uint64(step) % 512, Length: 9}})
		}
	}
	if got := held.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatal("a held view changed under later writes")
	}
	if _, now := tab.View(b); now == gen {
		t.Fatal("generation did not move across ten thousand writes")
	}
}

// TestTableAddNewAllocations pins the ingest path's allocation budget on a
// subset that already exists: no key string per call, and the folds and the
// tail index growth amortise to under one allocation per record.
func TestTableAddNewAllocations(t *testing.T) {
	tab := NewTable()
	b := bitvec.Range(0, 10)
	next := bitvec.UserID(0)
	add := func() {
		next++
		if _, added, err := tab.AddNew(&Published{ID: next * 7919 % 1000003, Subset: b, S: Sketch{Key: 5, Length: 9}}); err != nil || !added {
			t.Fatalf("AddNew(%d) = added %v, %v", next, added, err)
		}
	}
	add()
	if avg := testing.AllocsPerRun(50000, add); avg > 1 {
		t.Fatalf("AddNew on an existing subset allocates %.2f times per record, want ≤ 1 amortised", avg)
	}
	dup := Published{ID: 7919, Subset: b, S: Sketch{Key: 5, Length: 9}}
	if avg := testing.AllocsPerRun(1000, func() { _, _, _ = tab.AddNew(&dup) }); avg != 0 {
		t.Fatalf("duplicate AddNew allocates %.2f times per call, want 0", avg)
	}
}

// TestTableSnapshotRetainsNothing: Snapshot materialises a slice for the
// caller and the table keeps no reference to it, so once the caller drops
// it the heap returns to where it was.
func TestTableSnapshotRetainsNothing(t *testing.T) {
	tab := NewTable()
	b := bitvec.Range(0, 10)
	const n = 200_000
	for id := 1; id <= n; id++ {
		if err := tab.Add(Published{ID: bitvec.UserID(id), Subset: b, S: Sketch{Key: uint64(id) % 512, Length: 9}}); err != nil {
			t.Fatal(err)
		}
	}
	tab.View(b) // fold now, so the reading below holds no pending tail
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	if got := len(tab.Snapshot(b)); got != n {
		t.Fatalf("Snapshot returned %d records, want %d", got, n)
	}
	after := heap()
	// The snapshot itself is n 48-byte records (9.6 MB); allow a small
	// fraction of that for unrelated runtime churn.
	if slack := uint64(n * 48 / 20); after > before+slack {
		t.Fatalf("heap grew from %d to %d bytes across a dropped Snapshot: the table retains it", before, after)
	}
	perRecord := float64(before) / n
	t.Logf("the whole heap is %.1f bytes per record", perRecord)
	if perRecord > 7 {
		t.Errorf("the whole heap is %.1f bytes per record, want the 3.3 bytes of the columns — ids 1 apart, 2-byte sketches — and the test binary's own few", perRecord)
	}
}

// TestTableLoadRunArms pins which way a run lands, by the column's state
// after it: a run onto an empty column becomes the column's run as it is —
// the very bytes, no copy — a run of some size onto a warm column is merged
// into a run sized to what it holds, and a short one waits in the tail.
func TestTableLoadRunArms(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(4)
	word := Sketch{Key: 300, Length: 9}.Pack()
	run := func(n int, id func(i int) bitvec.UserID) Run {
		r := Run{Subset: b}
		var ids IDBuilder
		for i := 0; i < n; i++ {
			ids.Append(id(i))
			r.Keys = r.Keys.Append(word)
		}
		r.IDs = ids.IDs()
		return r
	}
	first := run(1000, func(i int) bitvec.UserID { return bitvec.UserID(2 * i) })
	if err := tab.LoadRun(first); err != nil {
		t.Fatal(err)
	}
	c := tab.cols[b.Key()]
	if &c.ids.b[0] != &first.IDs.b[0] || &c.keys.w[0] != &first.Keys.w[0] || len(c.tailIDs) != 0 {
		t.Fatal("a run onto an empty column was copied, not adopted")
	}
	if err := tab.LoadRun(run(100, func(i int) bitvec.UserID { return bitvec.UserID(20*i + 1) })); err != nil {
		t.Fatal(err)
	}
	snug := func() bool { return cap(c.ids.b)-len(c.ids.b) <= len(c.ids.b)/64 }
	if c.ids.Len() != 1100 || !snug() || cap(c.keys.w) != span(1100*9) || len(c.tailIDs) != 0 {
		t.Fatalf("after a merged load the run is %d records in %d id bytes with room for %d, and %d 64-bit words of sketches, tail %d; want 1100 with no room to speak of", c.ids.Len(), len(c.ids.b), cap(c.ids.b), cap(c.keys.w), len(c.tailIDs))
	}
	if perID := float64(len(c.ids.b)) / 1100; perID > 1.2 {
		t.Fatalf("ids 1 and 2 apart take %.2f bytes each, want a byte and their share of a block's 9", perID)
	}
	if err := tab.LoadRun(run(2, func(i int) bitvec.UserID { return bitvec.UserID(5 + 2*i) })); err != nil {
		t.Fatal(err)
	}
	if c.ids.Len() != 1100 || len(c.tailIDs) != 2 || tab.CountForSubset(b) != 1102 {
		t.Fatalf("after a short load the run is %d records and the tail %d, want 1100 and 2", c.ids.Len(), len(c.tailIDs))
	}
	if v, _ := tab.View(b); v.Len() != 1102 || c.ids.Len() != 1102 || !snug() || len(c.tailIDs) != 0 || c.index != nil {
		t.Fatalf("after a read the run is %d records in %d id bytes with room for %d and the tail %d", v.Len(), len(c.ids.b), cap(c.ids.b), len(c.tailIDs))
	}
}

// TestTableViewSurvivesWidening: a view taken while every sketch of its
// column is 9 bits long, so that the column holds 9-bit keys, reads
// bit-identical sketches after longer sketches arrived — through the tail,
// by loaded runs and landed batches, across folds — and re-encoded the
// column three times, as whole words ever wider, while readers go on
// reading the old view and taking new ones beside the writer.
func TestTableViewSurvivesWidening(t *testing.T) {
	tab := NewTable()
	b := bitvec.Range(0, 3)
	for id := 0; id < 3000; id++ {
		if err := tab.Add(Published{ID: bitvec.UserID(3 * id), Subset: b, S: Sketch{Key: uint64(id) % 512, Length: 9}}); err != nil {
			t.Fatal(err)
		}
	}
	held, _ := tab.View(b)
	want := held.AppendTo(nil)
	if held.keys.Shape() != 9 {
		t.Fatalf("a column of 9-bit sketches has shape %d, want 9", held.keys.Shape())
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got := held.AppendTo(nil); !reflect.DeepEqual(got, want) {
					t.Error("a held view changed while wider sketches arrived")
					return
				}
				now, _ := tab.View(b)
				for i := 0; i < now.Len(); i++ {
					if s := now.Sketch(i); !s.Valid() || (i > 0 && now.ID(i-1) >= now.ID(i)) {
						t.Errorf("a view taken beside the writer holds %v for user %v at %d", s, now.ID(i), i)
						return
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	shapes := make(map[Shape]bool)
	for step, length := range []int{16, 24, 30} {
		for i := 0; i < 700; i++ {
			id := bitvec.UserID(3*rng.Intn(4000) + 1 + step%2)
			s := Sketch{Key: rng.Uint64() % (1 << uint(length)), Length: length}
			switch rng.Intn(4) {
			case 0:
				landTestBatch(t, tab, b, id, s.Key, length)
			case 1:
				var run []Published
				for j := 0; j < 40; j++ {
					run = append(run, Published{ID: id + bitvec.UserID(3*j), Subset: b, S: s})
				}
				if err := tab.LoadRun(testRun(b, run)); err != nil {
					t.Fatal(err)
				}
			default:
				_, _, _ = tab.AddNew(&Published{ID: id, Subset: b, S: s})
			}
		}
		now, _ := tab.View(b)
		shapes[now.keys.Shape()] = true
	}
	close(done)
	readers.Wait()
	if got := held.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatal("a held view changed across three widenings of its column")
	}
	if held.keys.Shape() != 9 || len(shapes) != 3 || !shapes[wholeWords(MaxLength+5)] {
		t.Fatalf("the held view has shape %d and the column went through shapes %v; want 9, and three up to whole %d-bit words", held.keys.Shape(), shapes, MaxLength+5)
	}
}

// TestTableHeapBytesPerRecord is the ratchet under the fleet benchmark's
// heap_bytes_per_record: ten subsets of 35 000 nine-bit sketches — one
// node's share of that benchmark — ingested record by record and read once
// cost their ids and 9-bit keys, the length written once per column, and
// next to nothing more, and with a thousand unread inserts waiting in each
// column's tail, index and all, the table stays within half a byte a
// record of that (≈ 20 B a tail record, a third of it the flat index).  Landed as a bulk import lands
// them — 8192-record user-major batches through Probe and Land — and never
// read, the same records are within the read bound: a batch merges into
// its run and leaves no tail.  The ids come two ways.  Fleet-shaped — a
// tenant's tag above users numbered as they enrolled, two of every three
// of them on this node — they are held as 1-byte differences: 1.25 bytes
// each with their block's first id and offset.  Hashed over all 64 bits,
// in scattered order, they gain nothing and must lose nothing: 8 bytes and
// an eighth each.  A key held in more than its ℓ bits, or headroom behind
// the run, fails a first bound,
// a heavier tail a second, a batch that leaves a tail a third.
func TestTableHeapBytesPerRecord(t *testing.T) {
	const users, fresh = 35_000, 1000
	for _, shape := range []struct {
		name         string
		id           func(i int) uint64
		read, unread float64
	}{
		{"fleet-shaped ids", func(i int) uint64 { return 7<<40 | uint64(1+3*i/2) }, 2.7, 3.2},
		{"hashed ids", func(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }, 9.8, 10.0},
	} {
		t.Run(shape.name, func(t *testing.T) {
			subsets := make([]bitvec.Subset, 10)
			for i := range subsets {
				subsets[i] = bitvec.Range(0, i+1)
			}
			heap := func() uint64 {
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heap()
			tab := NewTable()
			ingest := func(from, to int) {
				for i := from; i < to; i++ {
					id := shape.id(i)
					for _, b := range subsets {
						if _, added, err := tab.AddNew(&Published{ID: bitvec.UserID(id), Subset: b, S: Sketch{Key: id * 0x9E3779B97F4A7C15 >> 55, Length: 9}}); err != nil || !added {
							t.Fatalf("AddNew(%v) = added %v, %v", id, added, err)
						}
					}
				}
			}
			ingest(0, users)
			for _, b := range subsets {
				if v, _ := tab.View(b); v.Len() != users {
					t.Fatalf("subset %v reads %d records, want %d", b, v.Len(), users)
				}
			}
			perRecord := float64(heap()-before) / float64(users*len(subsets))
			t.Logf("read: %.2f heap bytes per record", perRecord)
			if perRecord > shape.read {
				t.Errorf("a read table holds %.2f heap bytes per record, want ≤ %.1f: an id, a 9-bit key, nothing else", perRecord, shape.read)
			}
			ingest(users, users+fresh)
			perRecord = float64(heap()-before) / float64((users+fresh)*len(subsets))
			t.Logf("with unread inserts: %.2f heap bytes per record", perRecord)
			if perRecord > shape.unread {
				t.Errorf("with %d unread inserts per column the table holds %.2f heap bytes per record, want ≤ %.1f", fresh, perRecord, shape.unread)
			}
			runtime.KeepAlive(tab)

			tab = nil
			before = heap()
			tab = NewTable()
			var chunk []Published
			for i := 0; i < users*len(subsets); i += len(chunk) {
				chunk = chunk[:0]
				for j := i; j < min(i+8192, users*len(subsets)); j++ {
					id := shape.id(j / len(subsets))
					chunk = append(chunk, Published{ID: bitvec.UserID(id), Subset: subsets[j%len(subsets)], S: Sketch{Key: id * 0x9E3779B97F4A7C15 >> 55, Length: 9}})
				}
				b, err := tab.Probe(chunk)
				if err != nil || tab.Land(b) != len(chunk) {
					t.Fatalf("a batch of %d new records landed %d: %v", len(chunk), b.Len(), err)
				}
			}
			chunk = nil
			perRecord = float64(heap()-before) / float64(users*len(subsets))
			t.Logf("landed in batches, unread: %.2f heap bytes per record", perRecord)
			if perRecord > shape.read {
				t.Errorf("landed in batches and never read, the table holds %.2f heap bytes per record, want ≤ %.1f: a tail remains", perRecord, shape.read)
			}
			runtime.KeepAlive(tab)
		})
	}
}
