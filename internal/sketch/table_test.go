package sketch

import (
	"errors"
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
// sketch.  Both views' ids are decoded a block at a time (IDs.AppendTo),
// not a block per record.
func viewWithin(old, v View) bool {
	oldIDs, ids := old.IDs().AppendTo(nil), v.IDs().AppendTo(nil)
	j := 0
	for i, id := range oldIDs {
		for j < len(ids) && ids[j] < id {
			j++
		}
		if j == len(ids) || ids[j] != id || v.Sketch(j) != old.Sketch(i) {
			return false
		}
	}
	return true
}

// viewMatches reports whether v holds exactly the records want, in order,
// its ids decoded a block at a time.
func viewMatches(v View, want []Published) bool {
	ids := v.IDs().AppendTo(nil)
	if len(ids) != len(want) {
		return false
	}
	for i, p := range want {
		if ids[i] != p.ID || v.Sketch(i) != p.S {
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

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
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
	m := o[b.Key()]
	ids := make([]bitvec.UserID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	out := make([]Published, len(ids))
	for i, id := range ids {
		out[i] = Published{ID: id, Subset: b, S: m[id]}
	}
	return out
}

// checkWords drives copies of the column k, which holds want, the ways a
// column is driven between a table and a store, and fails the test unless
// each reads as a slice of sketches would: slices cut at any bit are
// appended to columns ending at any other and to empty ones; Set and Swap
// write one word each; a word or a column of another length is refused
// by a column that holds any.  k itself must read as it did.
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
	if n > 0 {
		foreign := Sketch{Key: uint64(rng.Intn(2)), Length: int(k.shape)%MaxLength + 1}
		if !panics(func() { k.Clone().Append(foreign.Pack()) }) || !panics(func() { testWords(foreign.Pack()).AppendWords(k) }) {
			t.Fatalf("a column of %d-bit sketches took a %d-bit one", k.shape, foreign.Length)
		}
	}
	for j := 0; j < 3; j++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		into := rng.Intn(n + 1)
		same("a slice appended to an empty column", Words{}.AppendWords(k.Slice(lo, hi)), want[lo:hi])
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
// enough that the pending records fold on their own limit as well as on
// reads, so duplicates meet both the sorted run and the pending parts.
// After every step the
// column has only grown: no CountForSubset falls, a sample of the records of
// the view each subset last read is held with the same sketch, and at every
// read the whole of that older view is in the fresh one, and its words
// hold up under checkWords.  Each subset has a length of its own, the
// three of a seed covering the word widths from 1 to 30 bits, and now and
// then a write of another length to a subset the table holds is refused
// with ErrForeignLength — Add, AddNew, a batch (which stops there) and a
// loaded run alike — leaving the table as it was.  The first steps are all
// loads, so runs land on empty columns too.
func TestTableMatchesMapOracle(t *testing.T) {
	subsets := []bitvec.Subset{bitvec.MustSubset(0), bitvec.MustSubset(1, 2), bitvec.Range(0, 5)}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, oracle := NewTable(), tableOracle{}
		gens := make(map[string]uint64)
		wrote := make(map[string]bool)
		step := 0
		lengths := map[string]int{}
		for i, length := range [][]int{{1, 17, 30}, {9, 8, 24}}[seed-1] {
			lengths[subsets[i].Key()] = length
		}
		sketchOf := func(length int) Sketch { return Sketch{Key: rng.Uint64() % (1 << uint(length)), Length: length} }
		record := func() Published {
			b := subsets[rng.Intn(len(subsets))]
			return Published{ID: bitvec.UserID(rng.Intn(6000)), Subset: b, S: sketchOf(lengths[b.Key()])}
		}
		// foreign gives p, one in n times, a sketch of another length than
		// its subset's when the table holds the subset, and reports it.
		foreign := func(p *Published, n int) bool {
			if len(oracle[p.Subset.Key()]) == 0 || rng.Intn(n) != 0 {
				return false
			}
			p.S = sketchOf(p.S.Length%MaxLength + 1)
			return true
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
			if !viewMatches(v, want) {
				for i, p := range want {
					if v.ID(i) != p.ID || v.Sketch(i) != p.S {
						t.Fatalf("seed %d subset %v record %d: view (%v, %v), oracle (%v, %v)", seed, b, i, v.ID(i), v.Sketch(i), p.ID, p.S)
					}
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
				if foreign(&p, 50) {
					if err := tab.Add(p); !errors.Is(err, ErrForeignLength) {
						t.Fatalf("seed %d step %d: Add of a foreign length (%v) = %v", seed, step, p, err)
					}
					break
				}
				ok := oracle.add(p)
				if err := tab.Add(p); (err == nil) != ok {
					t.Fatalf("seed %d step %d: Add(%v) = %v, oracle added=%v", seed, step, p, err, ok)
				}
				wrote[p.Subset.Key()] = wrote[p.Subset.Key()] || ok
			case op < 35:
				// An ingested batch: mostly new records, some repeated
				// within it and some re-publishing what the table holds —
				// identical but for one in a few hundred, a conflict — one
				// in a thousand invalid and one in a few hundred of a
				// foreign length.  The oracle admits in input order, skips
				// what it holds identically and stops at the first
				// conflict, invalid sketch or foreign length.
				batch := make([]Published, 1+rng.Intn(300))
				planned := tableOracle{}
				for i := range batch {
					p := record()
					if i > 0 && rng.Intn(8) == 0 {
						p.ID, p.Subset = batch[rng.Intn(i)].ID, batch[rng.Intn(i)].Subset
						p.S = sketchOf(lengths[p.Subset.Key()])
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
					foreign(&p, 300)
					planned.add(p)
					batch[i] = p
				}
				admitted, refused := 0, false
				for _, p := range batch {
					held, had := oracle[p.Subset.Key()][p.ID]
					if !p.S.Valid() || (had && held != p.S) || p.S.Length != lengths[p.Subset.Key()] {
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
				if foreign(&p, 50) {
					if _, added, err := tab.AddNew(&p); added || !errors.Is(err, ErrForeignLength) {
						t.Fatalf("seed %d step %d: AddNew of a foreign length (%v) = %v, %v", seed, step, p, added, err)
					}
					break
				}
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
				// One in twenty is a run of a foreign length instead,
				// refused whole.
				if p := record(); foreign(&p, 20) {
					if err := tab.LoadRun(testRun(p.Subset, []Published{p})); !errors.Is(err, ErrForeignLength) {
						t.Fatalf("seed %d step %d: LoadRun of a foreign length (%v) = %v", seed, step, p, err)
					}
					break
				}
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
						run[i] = Published{ID: bitvec.UserID(rng.Intn(6000)), Subset: b, S: sketchOf(lengths[b.Key()])}
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
					if !viewMatches(views[j], want) {
						t.Fatalf("seed %d step %d: Views(%v) view %d does not read as the oracle's records", seed, step, pick, j)
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

// stackShape returns how a column's pending records stand: the lengths of
// the runs on its stack, bottom first, then level 0's.
func stackShape(c *column) []int {
	out := make([]int, 0, len(c.deltas)+1)
	for _, d := range c.deltas {
		out = append(out, d.IDs.Len())
	}
	return append(out, len(c.l0))
}

// TestTablePendingRunsFindEveryRecord: a column's pending parts answer for
// every record across inserts that fill level 0, spill it onto the stack
// and fold the stack into the run, over dense ids and hashed ones alike:
// each held id is found with its own sketch wherever it stands, and none
// is admitted twice.  Whenever the stack or the run changes, and every 500
// inserts, every record is asked for, and a record of each part is
// published again with another sketch, which finds the first.
// (TestTablePendingStack takes the stack through its merges.)
func TestTablePendingRunsFindEveryRecord(t *testing.T) {
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
			var last []int
			deepest, folds := 0, 0
			// again publishes id anew, and requires the table to keep the
			// sketch it holds.
			again := func(step int, id bitvec.UserID) {
				p := Published{ID: id, Subset: b, S: Sketch{Key: (held[id].Key + 1) % 512, Length: 9}}
				if existing, added, err := tab.AddNew(&p); err != nil || added || existing != held[id] {
					t.Fatalf("step %d: a second sketch for user %v = (%v, %v, %v), want the first, %v", step, id, existing, added, err, held[id])
				}
			}
			for step := 0; step < 20000; step++ {
				id := shape.id(rng.Intn(12000))
				_, had := held[id]
				s := Sketch{Key: uint64(rng.Intn(512)), Length: 9}
				if _, added, err := tab.AddNew(&Published{ID: id, Subset: b, S: s}); err != nil || added == had {
					t.Fatalf("step %d: AddNew(%v) = added %v, %v; held %v", step, id, added, err, had)
				}
				if !had {
					held[id] = s
				}
				c := tab.cols[b.Key()]
				now := stackShape(c)
				if now[len(now)-1] != 0 && slices.Equal(now[:len(now)-1], last[:max(len(last)-1, 0)]) && step%500 != 0 {
					last = now
					continue
				}
				last, deepest = now, max(deepest, len(c.deltas))
				if c.pending == 0 {
					folds++
				}
				for id, s := range held {
					if got, ok := tab.Get(id, b); !ok || got != s {
						t.Fatalf("step %d: Get(%v) = %v, %v; want %v", step, id, got, ok, s)
					}
				}
				if tab.Len() != len(held) || c.len() != c.ids.Len()+c.pending {
					t.Fatalf("step %d: the table holds %d records, want %d", step, tab.Len(), len(held))
				}
				if c.ids.Len() > 0 {
					again(step, c.ids.At(rng.Intn(c.ids.Len())))
				}
				for _, d := range c.deltas {
					again(step, d.IDs.At(rng.Intn(d.IDs.Len())))
				}
				if len(c.l0) > 0 {
					again(step, c.l0[rng.Intn(len(c.l0))])
				}
			}
			if deepest < 2 || folds < 5 {
				t.Fatalf("the stack was at most %d runs deep, and %d folds were seen; want two runs or more, and folds", deepest, folds)
			}
		})
	}
}

// TestTablePendingStack steps a warm column's pending records across
// level 0's room, every spill of it onto the stack, the first merge of the
// stack (stackFanIn runs of level0Len into one), a cascade — a spill whose
// merge completes stackFanIn runs of the next size class, which merge in
// turn — and a fold, the ids dense and hashed.  After every spill records
// of every part are published again: with their own sketch, which adds
// nothing, and with another, which finds the first; a batch holding them,
// new users, a repeat and then a conflict is admitted exactly up to the
// record AddNew would refuse; a sketch of another length is refused at
// every door; and a view taken after the first merge reads, bit for bit,
// what it read when taken, at every later merge and after the fold.  A
// cascade needs 16k pending records, and so a 130k-record run beside them.
func TestTablePendingStack(t *testing.T) {
	for _, shape := range []struct {
		name string
		id   func(u int) bitvec.UserID
	}{
		{"dense ids", func(u int) bitvec.UserID { return bitvec.UserID(7<<40 | 1 + 3*u/2) }},
		{"hashed ids", func(u int) bitvec.UserID { return bitvec.UserID(uint64(u+1) * 0x9E3779B97F4A7C15) }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			// pendingLimit(130 000) = 16 506: room for the cascade at 16 385.
			const base = 130_000
			firstMerge, cascade := stackFanIn*level0Len, stackFanIn*stackFanIn*level0Len
			b := bitvec.MustSubset(1, 3)
			// Every user publishes the sketch its id gives it; held lists
			// the users the column holds.
			sketchOf := func(id bitvec.UserID) Sketch { return Sketch{Key: uint64(id) * 0x9E3779B97F4A7C15 >> 55, Length: 9} }
			held := make([]bitvec.UserID, base, base+2*cascade)
			for u := range held {
				held[u] = shape.id(u)
			}
			slices.Sort(held)
			keys := MakeWords(9, 0, base)
			for _, id := range held {
				keys = keys.Append(sketchOf(id).Pack())
			}
			tab := NewTable()
			if err := tab.LoadRun(Run{Subset: b, IDs: MakeIDs(held), Keys: keys}); err != nil {
				t.Fatal(err)
			}
			c := tab.cols[b.Key()]
			rng := rand.New(rand.NewSource(9))
			// Users arrive from base on, the hashed ones in no order.
			next, order := base, rng.Perm(2*cascade)
			fresh := func() bitvec.UserID {
				next++
				return shape.id(base + order[next-base-1])
			}
			publish := func() {
				p := Published{ID: fresh(), Subset: b}
				p.S = sketchOf(p.ID)
				if _, added, err := tab.AddNew(&p); err != nil || !added {
					t.Fatalf("AddNew of new user %v = %v, %v", p.ID, added, err)
				}
				held = append(held, p.ID)
			}
			// pick returns a record of every part of the column.
			pick := func() []bitvec.UserID {
				ids := []bitvec.UserID{c.ids.At(rng.Intn(c.ids.Len()))}
				for _, d := range c.deltas {
					ids = append(ids, d.IDs.At(rng.Intn(d.IDs.Len())))
				}
				if len(c.l0) > 0 {
					ids = append(ids, c.l0[rng.Intn(len(c.l0))])
				}
				return ids
			}
			other := func(id bitvec.UserID) Sketch { return Sketch{Key: (sketchOf(id).Key + 1) % 512, Length: 9} }
			check := func(at []int) {
				t.Helper()
				for _, id := range pick() {
					same := Published{ID: id, Subset: b, S: sketchOf(id)}
					if existing, added, err := tab.AddNew(&same); err != nil || added || existing != sketchOf(id) {
						t.Fatalf("at %v: user %v's own sketch again = (%v, %v, %v)", at, id, existing, added, err)
					}
					second := Published{ID: id, Subset: b, S: other(id)}
					if existing, added, err := tab.AddNew(&second); err != nil || added || existing != sketchOf(id) {
						t.Fatalf("at %v: user %v's second sketch = (%v, %v, %v), want the first, %v", at, id, existing, added, err, sketchOf(id))
					}
					if got, ok := tab.Get(id, b); !ok || got != sketchOf(id) {
						t.Fatalf("at %v: Get(%v) = %v, %v; want %v", at, id, got, ok, sketchOf(id))
					}
				}
				// A batch: a new user, the held ones as held, the new user
				// again, another new one, a held one with a second sketch —
				// where AddNew would refuse — and a new one past it.
				first, second, third := fresh(), fresh(), fresh()
				batch := []Published{{ID: first, Subset: b, S: sketchOf(first)}}
				for _, id := range pick() {
					batch = append(batch, Published{ID: id, Subset: b, S: sketchOf(id)})
				}
				victim := pick()
				batch = append(batch, batch[0], Published{ID: second, Subset: b, S: sketchOf(second)})
				cut := len(batch)
				batch = append(batch, Published{ID: victim[len(victim)-1], Subset: b, S: other(victim[len(victim)-1])}, Published{ID: third, Subset: b, S: sketchOf(third)})
				pb, err := tab.Probe(batch)
				if !errors.Is(err, ErrConflict) || pb.Len() != 2 {
					t.Fatalf("at %v: a batch with a conflict at record %d admits %d records, %v; want 2 and ErrConflict", at, cut, pb.Len(), err)
				}
				if got := pb.Records(); got[0].ID != min(first, second) || got[1].ID != max(first, second) {
					t.Fatalf("at %v: the batch admits %v, want users %v and %v", at, got, first, second)
				}
				// Every door refuses a sketch of another length.
				foreign := Published{ID: third, Subset: b, S: Sketch{Key: 1, Length: 10}}
				if _, added, err := tab.AddNew(&foreign); added || !errors.Is(err, ErrForeignLength) {
					t.Fatalf("at %v: AddNew of a 10-bit sketch = %v, %v", at, added, err)
				}
				if pb, err := tab.Probe([]Published{batch[0], foreign}); pb.Len() != 1 || !errors.Is(err, ErrForeignLength) {
					t.Fatalf("at %v: a batch with a 10-bit sketch second admits %d, %v", at, pb.Len(), err)
				}
				if err := tab.LoadRun(testRun(b, []Published{foreign})); !errors.Is(err, ErrForeignLength) {
					t.Fatalf("at %v: LoadRun of a 10-bit run = %v", at, err)
				}
				if tab.Len() != len(held) {
					t.Fatalf("at %v: the table holds %d records, want %d", at, tab.Len(), len(held))
				}
			}
			// The view taken after the first merge, and what it read then.
			var view View
			var viewIDs []bitvec.UserID
			var viewWords []uint64
			viewHolds := func(at []int) {
				t.Helper()
				if view.Len() > 0 && (!slices.Equal(view.IDs().AppendTo(nil), viewIDs) || !slices.Equal(view.keys.w, viewWords)) {
					t.Fatalf("at %v: a view taken between merges changed", at)
				}
			}
			// Publish one by one, checking after every spill, until the
			// stack has cascaded.
			var spills, merges int
			for deepest := 0; deepest < cascade; {
				if c.pending+1 >= pendingLimit(c.ids.Len()) {
					t.Fatalf("the column folds at %d pending on a stack of %v, before a cascade", c.pending+1, stackShape(c))
				}
				was := len(c.deltas)
				publish()
				if len(c.l0) != 1 || len(c.deltas) == 0 {
					continue
				}
				spills++
				now := stackShape(c)
				if len(c.deltas) <= was {
					merges++
					viewHolds(now)
				}
				deepest = max(deepest, c.deltas[0].IDs.Len())
				check(now)
				if view.Len() == 0 && c.deltas[0].IDs.Len() == firstMerge {
					if !slices.Equal(now, []int{firstMerge, 1}) {
						t.Fatalf("the first merge leaves the stack at %v, want [%d 1]", now, firstMerge)
					}
					// The view folds the column; the walk begins again.
					view, _ = tab.View(b)
					viewIDs, viewWords = view.IDs().AppendTo(nil), slices.Clone(view.keys.w)
					if c.pending != 0 || view.Len() != len(held) {
						t.Fatalf("a view holds %d records and leaves %d pending, want %d and none", view.Len(), c.pending, len(held))
					}
				}
			}
			if now := stackShape(c); !slices.Equal(now, []int{cascade, 1}) || merges != 1+stackFanIn {
				t.Fatalf("the cascade leaves the stack at %v after %d spills and %d merges, want [%d 1] after %d merges", now, spills, merges, cascade, 1+stackFanIn)
			}
			for n := c.ids.Len(); c.ids.Len() == n; {
				publish()
			}
			if c.pending != 0 || c.filter != nil || len(c.deltas) != 0 {
				t.Fatalf("after a fold %d records pend on a stack of %v", c.pending, stackShape(c))
			}
			check(nil)
			viewHolds(nil)
			v, _ := tab.View(b)
			slices.Sort(held)
			if !slices.Equal(v.IDs().AppendTo(nil), held) {
				t.Fatal("the folded column does not hold the users published")
			}
			for i, id := range held {
				if v.Sketch(i) != sketchOf(id) {
					t.Fatalf("the folded column holds %v for user %v, who published %v", v.Sketch(i), id, sketchOf(id))
				}
			}
		})
	}
}

// TestTableLoadInvalidSketchLoadsNothing pins LoadRun's all-or-nothing
// check: no column holds an invalid sketch — the word is refused as it is
// appended — and a run of valid sketches of another length than its
// subset's loads not one of them.
func TestTableLoadInvalidSketchLoadsNothing(t *testing.T) {
	if !panics(func() { testWords(Sketch{Key: 1, Length: 4}.Pack(), Sketch{Key: 99, Length: 4}.Pack()) }) {
		t.Fatal("a column took a 4-bit sketch with a key of 99")
	}
	tab := NewTable()
	b := bitvec.MustSubset(0)
	if err := tab.LoadRun(Run{Subset: b, IDs: MakeIDs([]bitvec.UserID{1}), Keys: testWords(Sketch{Key: 1, Length: 4}.Pack())}); err != nil {
		t.Fatal(err)
	}
	err := tab.LoadRun(Run{
		Subset: b,
		IDs:    MakeIDs([]bitvec.UserID{2, 3}),
		Keys:   testWords(Sketch{Key: 1, Length: 5}.Pack(), Sketch{Key: 30, Length: 5}.Pack()),
	})
	if !errors.Is(err, ErrForeignLength) || tab.Len() != 1 {
		t.Fatalf("LoadRun of 5-bit sketches onto 4-bit ones = %v, table holds %d records", err, tab.Len())
	}
}

// TestTableLoadRun: a run lands as columns — onto an empty subset in one
// piece, onto a warm one first record wins — and a run that is not columns
// of its subset's sketches lands not at all.
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
		"another length": {Subset: b, IDs: MakeIDs([]bitvec.UserID{20}), Keys: testWords(Sketch{Key: 9, Length: 5}.Pack())},
		"ragged columns": {Subset: b, IDs: MakeIDs([]bitvec.UserID{20, 21}), Keys: testWords(word(1))},
	} {
		if err := tab.LoadRun(r); err == nil || tab.Len() != len(want) {
			t.Errorf("LoadRun of %s = %v, table holds %d records", name, err, tab.Len())
		}
	}
}

// TestTableViewIsImmutable holds a view across ten thousand later inserts
// and landed batches — which fold the pending records many times, merge
// new runs, and outgrow the arrays the view aliases — and requires its ids
// and sketches to read exactly as they did when it was taken.
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
// pending runs' merges amortise to under one allocation per record.
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
	tab.View(b) // fold now, so the reading below holds nothing pending
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
// into a run sized to what it holds, and a short one merges into level 0,
// whose arrays, with the filter, a read drops with the pending records —
// and a short one that holds nothing new makes none.  A run of some size
// onto a column with records pending on its stack and in level 0 merges
// with the run and both in one pass, the column's record winning an id it
// holds wherever that stands.
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
	if &c.ids.b[0] != &first.IDs.b[0] || &c.keys.w[0] != &first.Keys.w[0] || c.pending != 0 {
		t.Fatal("a run onto an empty column was copied, not adopted")
	}
	if err := tab.LoadRun(run(100, func(i int) bitvec.UserID { return bitvec.UserID(20*i + 1) })); err != nil {
		t.Fatal(err)
	}
	snug := func() bool { return cap(c.ids.b)-len(c.ids.b) <= len(c.ids.b)/64 }
	if c.ids.Len() != 1100 || !snug() || cap(c.keys.w) != span(1100*9) || c.pending != 0 {
		t.Fatalf("after a merged load the run is %d records in %d id bytes with room for %d, and %d 64-bit words of sketches, %d pending; want 1100 with no room to speak of", c.ids.Len(), len(c.ids.b), cap(c.ids.b), cap(c.keys.w), c.pending)
	}
	if perID := float64(len(c.ids.b)) / 1100; perID > 1.2 {
		t.Fatalf("ids 1 and 2 apart take %.2f bytes each, want a byte and their share of a block's 9", perID)
	}
	if err := tab.LoadRun(run(2, func(i int) bitvec.UserID { return bitvec.UserID(5 + 2*i) })); err != nil {
		t.Fatal(err)
	}
	if c.ids.Len() != 1100 || c.pending != 2 || !slices.Equal(c.l0, []bitvec.UserID{5, 7}) || len(c.deltas) != 0 || tab.CountForSubset(b) != 1102 {
		t.Fatalf("after a short load the run is %d records, level 0 holds %v and the stack %d runs, want 1100, [5 7] and none", c.ids.Len(), c.l0, len(c.deltas))
	}
	if v, _ := tab.View(b); v.Len() != 1102 || c.ids.Len() != 1102 || !snug() || c.pending != 0 || c.l0 != nil || len(c.deltas) != 0 || c.filter != nil {
		t.Fatalf("after a read the run is %d records in %d id bytes with room for %d, and %d pending", v.Len(), len(c.ids.b), cap(c.ids.b), c.pending)
	}
	// A short run of records the column holds adds nothing, and makes no
	// level 0 for it.
	if err := tab.LoadRun(run(2, func(i int) bitvec.UserID { return bitvec.UserID(5 + 2*i) })); err != nil {
		t.Fatal(err)
	}
	if c.pending != 0 || c.l0 != nil || c.filter != nil || tab.CountForSubset(b) != 1102 {
		t.Fatalf("a short load of held records leaves %d pending, level 0 %v, the column %d records", c.pending, c.l0, tab.CountForSubset(b))
	}
	// 300 inserts: a run of 256 on the stack, 44 in level 0.
	for i := 0; i < 300; i++ {
		if err := tab.Add(Published{ID: bitvec.UserID(3000 + 2*i), Subset: b, S: UnpackSketch(word)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.deltas) != 1 || len(c.l0) != 44 || c.pending != 300 {
		t.Fatalf("300 inserts leave %d runs on the stack and %d records in level 0, want 1 and 44", len(c.deltas), len(c.l0))
	}
	// Ids 0 and 2 of the run, then every 15th from 3000 on: the even ones
	// held on the stack and in level 0, the odd ones new.
	other := Sketch{Key: 301, Length: 9}.Pack()
	mixed := run(42, func(i int) bitvec.UserID {
		if i < 2 {
			return bitvec.UserID(2 * i)
		}
		return bitvec.UserID(3000 + 15*(i-2))
	})
	mixed.Keys = MakeWords(Shape(9), 0, 42)
	for range 42 {
		mixed.Keys = mixed.Keys.Append(other)
	}
	if err := tab.LoadRun(mixed); err != nil {
		t.Fatal(err)
	}
	if c.ids.Len() != 1422 || !snug() || c.pending != 0 || c.l0 != nil || len(c.deltas) != 0 || c.filter != nil {
		t.Fatalf("a merged load onto pending records leaves a run of %d records in %d id bytes with room for %d, %d pending; want 1422 and none", c.ids.Len(), len(c.ids.b), cap(c.ids.b), c.pending)
	}
	v, _ := tab.View(b)
	for i := 0; i < v.Len(); i++ {
		id, want := v.ID(i), word
		if id >= 3000 && id%2 == 1 {
			want = other
		}
		if (i > 0 && v.ID(i-1) >= id) || v.Sketch(i).Pack() != want {
			t.Fatalf("record %d is user %v with %v after user %v", i, id, v.Sketch(i), v.ID(max(i-1, 0)))
		}
	}
}

// TestTableLandProbedBatchOnce: a probed batch's Land looks up none of its
// records again, so what it lands is exactly what Probe admitted, each
// record once, on each arm a batch lands by onto a warm column: a short run
// into level 0, one longer than level 0 onto the stack, a run long enough
// merged into the column's run.  The batches hold records the column has
// (an identical re-publish), repeats inside the batch and a record Drop
// withdraws, none of which lands; a view afterwards holds every id once,
// ascending, with the sketch its first admitted record carried.
func TestTableLandProbedBatchOnce(t *testing.T) {
	tab := NewTable()
	b := bitvec.MustSubset(4)
	const warm = 40_000 // even ids: a batch of under 400 lands pending
	key := func(id bitvec.UserID) uint64 { return uint64(id) % 512 }
	var r Run
	r.Subset = b
	var ids IDBuilder
	for i := 0; i < warm; i++ {
		ids.Append(bitvec.UserID(2 * i))
		r.Keys = r.Keys.Append(Sketch{Key: key(bitvec.UserID(2 * i)), Length: 9}.Pack())
	}
	r.IDs = ids.IDs()
	if err := tab.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	c := tab.cols[b.Key()]
	want := warm
	for _, tc := range []struct {
		arm   string
		fresh int // new odd ids, from lo on
		lo    bitvec.UserID
		check func() bool
	}{
		{"level 0", 5, 1, func() bool { return c.pending == 5 && len(c.l0) == 5 && len(c.deltas) == 0 }},
		{"the stack", 300, 101, func() bool { return c.pending == 305 && len(c.l0) == 0 && len(c.deltas) == 2 }}, // level 0 spilled first
		{"a merge", 600, 2001, func() bool { return c.pending == 0 }},
	} {
		batch := []Published{{ID: 0, Subset: b, S: Sketch{Key: key(0), Length: 9}}} // held
		for j := 0; j < tc.fresh; j++ {
			id := tc.lo + bitvec.UserID(2*j)
			p := Published{ID: id, Subset: b, S: Sketch{Key: key(id), Length: 9}}
			batch = append(batch, p)
			if j%7 == 0 {
				batch = append(batch, p) // an identical repeat
			}
		}
		dropped := Published{ID: tc.lo + bitvec.UserID(2*tc.fresh), Subset: b, S: Sketch{Key: 1, Length: 9}}
		batch = append(batch, dropped, Published{ID: 4, Subset: b, S: Sketch{Key: key(4), Length: 9}})
		bt, err := tab.Probe(batch)
		if err != nil || bt.Len() != tc.fresh+1 {
			t.Fatalf("%s: Probe admitted %d records (%v), want %d", tc.arm, bt.Len(), err, tc.fresh+1)
		}
		bt.Drop([]int{tc.fresh}) // the last of the group's ascending ids
		if n := tab.Land(bt); n != tc.fresh || !tc.check() {
			t.Fatalf("%s: Land added %d records, want %d; %d pending, level 0 %d, %d runs on the stack", tc.arm, n, tc.fresh, c.pending, len(c.l0), len(c.deltas))
		}
		if want += tc.fresh; tab.CountForSubset(b) != want {
			t.Fatalf("%s: the column counts %d records, want %d", tc.arm, tab.CountForSubset(b), want)
		}
		if _, ok := tab.Get(dropped.ID, b); ok {
			t.Fatalf("%s: the dropped record landed", tc.arm)
		}
	}
	v, _ := tab.View(b)
	if v.Len() != want {
		t.Fatalf("the view holds %d records, want %d", v.Len(), want)
	}
	for i := 0; i < v.Len(); i++ {
		if id := v.ID(i); (i > 0 && v.ID(i-1) >= id) || v.Sketch(i) != (Sketch{Key: key(id), Length: 9}) {
			t.Fatalf("record %d of the view is user %v with %v after user %v", i, id, v.Sketch(i), v.ID(max(i-1, 0)))
		}
	}
}

// TestTableViewSurvivesWrites: a view of a column of 9-bit sketches reads
// bit-identical sketches while more of them arrive — one by one, by
// loaded runs and landed batches, across folds — and readers go on reading
// the old view and taking new ones beside the writer.  Sketches of another
// length are refused at every door — AddNew, a batch, a loaded run — and
// leave the column as it was: its length, its records, its generation.
func TestTableViewSurvivesWrites(t *testing.T) {
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
					t.Error("a held view changed while more sketches arrived")
					return
				}
				now, _ := tab.View(b)
				for i := 0; i < now.Len(); i++ {
					if s := now.Sketch(i); s.Length != 9 || !s.Valid() || (i > 0 && now.ID(i-1) >= now.ID(i)) {
						t.Errorf("a view taken beside the writer holds %v for user %v at %d", s, now.ID(i), i)
						return
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 3; step++ {
		for i := 0; i < 700; i++ {
			id := bitvec.UserID(3*rng.Intn(4000) + 1 + step%2)
			s := Sketch{Key: rng.Uint64() % 512, Length: 9}
			switch rng.Intn(4) {
			case 0:
				landTestBatch(t, tab, b, id, s.Key, 9)
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
		before, gen := tab.View(b)
		foreign := Published{ID: 1 << 40, Subset: b, S: Sketch{Key: 5, Length: 9 + 7*(step+1)}}
		if _, added, err := tab.AddNew(&foreign); added || !errors.Is(err, ErrForeignLength) {
			t.Fatalf("AddNew of a %d-bit sketch into a 9-bit column = %v, %v", foreign.S.Length, added, err)
		}
		batch := []Published{{ID: 1<<40 + 1, Subset: b, S: Sketch{Key: 1, Length: 9}}, foreign}
		if pb, err := tab.Probe(batch); pb.Len() != 1 || !errors.Is(err, ErrForeignLength) {
			t.Fatalf("a batch with a %d-bit sketch after a 9-bit one admits %d records, %v; want the first and ErrForeignLength", foreign.S.Length, pb.Len(), err)
		}
		if err := tab.LoadRun(testRun(b, []Published{foreign})); !errors.Is(err, ErrForeignLength) {
			t.Fatalf("LoadRun of a %d-bit run into a 9-bit column = %v", foreign.S.Length, err)
		}
		if after, again := tab.View(b); again != gen || !reflect.DeepEqual(after.AppendTo(nil), before.AppendTo(nil)) || after.keys.Shape() != 9 {
			t.Fatalf("refused writes of a %d-bit sketch moved the column: generation %d to %d, shape %d", foreign.S.Length, gen, again, after.keys.Shape())
		}
	}
	close(done)
	readers.Wait()
	if got := held.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatal("a held view changed across writes to its column")
	}
}

// TestTableHeapBytesPerRecord is the ratchet under the fleet benchmark's
// heap_bytes_per_record: ten subsets of 35 000 nine-bit sketches — one
// node's share of that benchmark — ingested record by record and read once
// cost their ids and 9-bit keys, the length written once per column, and
// next to nothing more, and with a thousand unread inserts pending in each
// column — three runs spilled onto its stack and the rest in level 0 — the
// table stays within about a seventh of a byte a record of that: a pending
// record is coded as a run record is but for the id column the subsets
// share, plus 8 to 16 bits of filter, and level 0's 3.3 kB is paid once a
// column.  In the fourth row 3000 unread inserts a column have
// merged eight spilled runs into one, and the stack so built is what the
// bound holds.  Landed as a bulk import lands them — 8192-record
// user-major batches through Probe and Land — and never read, the same
// records are within the read bound: a batch merges into its run and
// leaves nothing pending.  The ids come two ways.  Fleet-shaped — a
// tenant's tag above users numbered as they enrolled, two of every three
// of them on this node — they are held as 1-bit differences less one: a
// 17-byte block, 0.39 bytes each with its offset.  Hashed over all 64
// bits, in scattered order, they gain nothing and must lose nothing: 8
// bytes and an eighth each.  Every user publishes all ten subsets, so the
// ten columns hold one id column between them and a record pays a tenth of
// its id; in the third row each subset lacks a different user, nothing is
// shared, and the gates are those of a column that holds its ids alone.  A
// key held in more than its ℓ bits, headroom behind the run, or an id
// column the subsets do not share, fails a first bound, heavier pending
// records a second, a batch that leaves records pending a third.  The
// unread bounds are the readings plus 10 %.
func TestTableHeapBytesPerRecord(t *testing.T) {
	const users = 35_000
	fleetShaped := func(i int) uint64 { return 7<<40 | uint64(1+3*i/2) }
	for _, shape := range []struct {
		name         string
		id           func(i int) uint64
		lacks        bool // subset k lacks user 3001k+5
		fresh        int  // unread inserts per column
		read, unread float64
	}{
		{"fleet-shaped ids", fleetShaped, false, 1000, 1.33, 1.5},
		{"hashed ids", func(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }, false, 1000, 2.2, 2.56},
		{"fleet-shaped ids, no two subsets alike", fleetShaped, true, 1000, 1.72, 1.89},
		{"fleet-shaped ids, a merged stack", fleetShaped, false, 3000, 1.33, 1.63},
	} {
		fresh := shape.fresh
		t.Run(shape.name, func(t *testing.T) {
			subsets := make([]bitvec.Subset, 10)
			for i := range subsets {
				subsets[i] = bitvec.Range(0, i+1)
			}
			holds := func(i, k int) bool { return !shape.lacks || i != 3001*k+5 }
			held := users
			if shape.lacks {
				held--
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
					for k, b := range subsets {
						if !holds(i, k) {
							continue
						}
						if _, added, err := tab.AddNew(&Published{ID: bitvec.UserID(id), Subset: b, S: Sketch{Key: id * 0x9E3779B97F4A7C15 >> 55, Length: 9}}); err != nil || !added {
							t.Fatalf("AddNew(%v) = added %v, %v", id, added, err)
						}
					}
				}
			}
			ingest(0, users)
			for _, b := range subsets {
				if v, _ := tab.View(b); v.Len() != held {
					t.Fatalf("subset %v reads %d records, want %d", b, v.Len(), held)
				}
			}
			perRecord := float64(heap()-before) / float64(held*len(subsets))
			t.Logf("read: %.2f heap bytes per record", perRecord)
			if perRecord > shape.read {
				t.Errorf("a read table holds %.2f heap bytes per record, want ≤ %.2f: an id, a 9-bit key, nothing else", perRecord, shape.read)
			}
			ingest(users, users+fresh)
			for _, b := range subsets {
				c := tab.lookup(b)
				merged := len(c.deltas) > 0 && c.deltas[0].IDs.Len() == stackFanIn*level0Len
				if c.pending != fresh || merged != (fresh > stackFanIn*level0Len) {
					t.Fatalf("subset %v holds %d pending records on a stack of %v, want %d, merged %v", b, c.pending, stackShape(c), fresh, fresh > stackFanIn*level0Len)
				}
			}
			perRecord = float64(heap()-before) / float64((held+fresh)*len(subsets))
			t.Logf("with unread inserts: %.2f heap bytes per record", perRecord)
			if perRecord > shape.unread {
				t.Errorf("with %d unread inserts per column the table holds %.2f heap bytes per record, want ≤ %.2f", fresh, perRecord, shape.unread)
			}
			runtime.KeepAlive(tab)

			tab = nil
			before = heap()
			tab = NewTable()
			var chunk []Published
			for i := 0; i < users*len(subsets); {
				chunk = chunk[:0]
				for end := min(i+8192, users*len(subsets)); i < end; i++ {
					if user, k := i/len(subsets), i%len(subsets); holds(user, k) {
						id := shape.id(user)
						chunk = append(chunk, Published{ID: bitvec.UserID(id), Subset: subsets[k], S: Sketch{Key: id * 0x9E3779B97F4A7C15 >> 55, Length: 9}})
					}
				}
				b, err := tab.Probe(chunk)
				if err != nil || tab.Land(b) != len(chunk) {
					t.Fatalf("a batch of %d new records landed %d: %v", len(chunk), b.Len(), err)
				}
			}
			chunk = nil
			perRecord = float64(heap()-before) / float64(held*len(subsets))
			t.Logf("landed in batches, unread: %.2f heap bytes per record", perRecord)
			if perRecord > shape.read {
				t.Errorf("landed in batches and never read, the table holds %.2f heap bytes per record, want ≤ %.2f: records remain pending", perRecord, shape.read)
			}
			runtime.KeepAlive(tab)
		})
	}
}

// TestTableSharesEqualIDColumns: columns whose runs hold the same users hold
// one IDs between them, however the runs were built — landed batches, onto
// an empty column and merged onto a warm one, loaded runs, a fold inside
// AddNew and a fold inside Views — and columns whose users differ by one
// id, whether in count or in one id alone, never do.  A write to one column
// of a sharing set builds that column a run of its own and leaves each
// sibling's held and fresh views as they were.
func TestTableSharesEqualIDColumns(t *testing.T) {
	subsets := []bitvec.Subset{bitvec.Range(0, 1), bitvec.Range(0, 2), bitvec.Range(0, 3)}
	// ids returns the id columns of the subsets' runs, read straight off
	// the columns: a view would fold the pending records first.
	ids := func(tab *Table) []IDs {
		tab.mu.RLock()
		defer tab.mu.RUnlock()
		out := make([]IDs, len(subsets))
		for i, b := range subsets {
			out[i] = tab.lookup(b).ids
		}
		return out
	}
	shared := func(t *testing.T, how string, cols []IDs) {
		t.Helper()
		for i := range cols[1:] {
			if cols[0].Len() == 0 || !cols[0].Same(cols[i+1]) {
				t.Fatalf("%s: subset %v's %d ids are not subset %v's %d, held once", how, subsets[i+1], cols[i+1].Len(), subsets[0], cols[0].Len())
			}
		}
	}
	publish := func(t *testing.T, tab *Table, b bitvec.Subset, from, to int) {
		t.Helper()
		for id := from; id < to; id++ {
			if _, added, err := tab.AddNew(&Published{ID: bitvec.UserID(2 * id), Subset: b, S: Sketch{Key: uint64(id) % 512, Length: 9}}); err != nil || !added {
				t.Fatalf("AddNew of user %d = %v, %v", 2*id, added, err)
			}
		}
	}

	t.Run("land", func(t *testing.T) {
		tab := NewTable()
		for i, b := range subsets {
			landTestBatch(t, tab, b, 10, uint64(i), 9)
		}
		shared(t, "batches landed on empty columns", ids(tab))
		for i, b := range subsets {
			landTestBatch(t, tab, b, 11, uint64(i), 9)
		}
		shared(t, "batches merged onto warm columns", ids(tab))
	})
	t.Run("load", func(t *testing.T) {
		tab := NewTable()
		for _, from := range []int{0, 500} {
			for i, b := range subsets {
				var run []Published
				for id := from; id < from+500; id++ {
					run = append(run, Published{ID: bitvec.UserID(3 * id), Subset: b, S: Sketch{Key: uint64(id+i) % 512, Length: 9}})
				}
				if err := tab.LoadRun(testRun(b, run)); err != nil {
					t.Fatal(err)
				}
			}
			shared(t, "loaded runs", ids(tab))
		}
	})
	t.Run("fold", func(t *testing.T) {
		tab := NewTable()
		// At level0Len inserts, and at each pendingLimit after, each column
		// folds inside AddNew: the last of these folds, at 3204 records,
		// merges a stack that merged two spilled runs.
		for _, b := range subsets {
			publish(t, tab, b, 0, 3300)
		}
		shared(t, "runs folded by AddNew", ids(tab))
		for _, b := range subsets {
			publish(t, tab, b, 3300, 3350)
		}
		views := tab.Views(subsets, false)
		cols := make([]IDs, len(views))
		for i, v := range views {
			cols[i] = v.IDs()
		}
		shared(t, "runs folded by Views", cols)
	})
	t.Run("one id apart", func(t *testing.T) {
		tab := NewTable()
		publish(t, tab, subsets[0], 0, 300)
		publish(t, tab, subsets[1], 0, 299) // one user fewer
		// As many users, the same last one, one other in the middle.
		publish(t, tab, subsets[2], 0, 150)
		if _, _, err := tab.AddNew(&Published{ID: 301, Subset: subsets[2], S: Sketch{Key: 1, Length: 9}}); err != nil {
			t.Fatal(err)
		}
		publish(t, tab, subsets[2], 151, 300)
		views := tab.Views(subsets, false)
		if views[0].Len() != views[2].Len() || views[0].ID(views[0].Len()-1) != views[2].ID(views[2].Len()-1) {
			t.Fatal("the third subset does not match the first in count and last id")
		}
		for i := range views {
			for j := range views[:i] {
				if views[i].IDs().Same(views[j].IDs()) {
					t.Fatalf("subsets %v and %v hold different users but one id column", subsets[j], subsets[i])
				}
			}
		}
	})
	t.Run("readers beside the writer", func(t *testing.T) {
		// Readers take and decode views of all the subsets while a writer
		// publishes users to each in turn, so runs are rebuilt and shared
		// under the write lock while views of them are held.
		tab := NewTable()
		done := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var held []View
				var want [][]bitvec.UserID
				for {
					select {
					case <-done:
						return
					default:
					}
					for i, v := range held {
						if got := v.IDs().AppendTo(nil); !slices.Equal(got, want[i]) {
							t.Errorf("a held view of subset %v changed", subsets[i])
							return
						}
					}
					held, want = tab.Views(subsets, false), want[:0]
					for _, v := range held {
						ids := v.IDs().AppendTo(nil)
						if !Ascends(ids) {
							t.Errorf("a view of subset %v holds ids out of order", v.Subset())
							return
						}
						want = append(want, ids)
					}
				}
			}()
		}
		for from := 0; from < 2000; from += 50 {
			for i, b := range subsets {
				if from%200 == 0 {
					landTestBatch(t, tab, b, bitvec.UserID(1<<30+24*from), uint64(i), 9)
				}
				publish(t, tab, b, from, from+50)
			}
		}
		close(done)
		readers.Wait()
		views := tab.Views(subsets, false)
		cols := make([]IDs, len(views))
		for i, v := range views {
			cols[i] = v.IDs()
		}
		shared(t, "after the writer", cols)
	})
	t.Run("a later write", func(t *testing.T) {
		// Each arm writes to the first subset of a sharing set and reads all.
		for _, write := range []struct {
			name string
			fn   func(tab *Table)
		}{
			{"AddNew", func(tab *Table) { publish(t, tab, subsets[0], 400, 401) }},
			{"Land", func(tab *Table) { landTestBatch(t, tab, subsets[0], 2*400+1, 7, 9) }},
			{"LoadRun", func(tab *Table) {
				if err := tab.LoadRun(testRun(subsets[0], []Published{{ID: 2*400 + 1, Subset: subsets[0], S: Sketch{Key: 7, Length: 9}}})); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			tab := NewTable()
			for _, b := range subsets {
				publish(t, tab, b, 0, 400)
			}
			held := tab.Views(subsets, false)
			want := make([][]Published, len(held))
			for i, v := range held {
				want[i] = v.AppendTo(nil)
			}
			shared(t, write.name+": before the write", ids(tab))
			write.fn(tab)
			fresh := tab.Views(subsets, false)
			if fresh[0].Len() <= held[0].Len() || fresh[0].IDs().Same(fresh[1].IDs()) || !viewWithin(held[0], fresh[0]) {
				t.Fatalf("%s: the written subset reads %d records over %d, sharing its ids %v", write.name, fresh[0].Len(), held[0].Len(), fresh[0].IDs().Same(fresh[1].IDs()))
			}
			for i := range held {
				if got := held[i].AppendTo(nil); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s: subset %v's held view changed", write.name, subsets[i])
				}
				if i > 0 && (fresh[i].Gen() != held[i].Gen() || !fresh[i].IDs().Same(held[i].IDs()) || !reflect.DeepEqual(fresh[i].AppendTo(nil), want[i])) {
					t.Fatalf("%s: a write to subset %v moved its sibling %v", write.name, subsets[0], subsets[i])
				}
			}
		}
	})
}
