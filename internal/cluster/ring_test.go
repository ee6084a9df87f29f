package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/wire"
)

func TestRingPlacementIsMembershipOrderIndependent(t *testing.T) {
	a, err := NewRing([]string{"n1:1", "n2:1", "n3:1"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3:1", "n1:1", "n2:1"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for id := bitvec.UserID(1); id <= 500; id++ {
		oa := a.Owners(id, 2)
		ob := b.Owners(id, 2)
		if len(oa) != 2 || len(ob) != 2 || oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("id %d: owners differ by listing order: %v vs %v", id, oa, ob)
		}
		if oa[0] == oa[1] {
			t.Fatalf("id %d: replica equals owner: %v", id, oa)
		}
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewRing([]string{""}, 8); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := NewRing([]string{"a"}, 0); err == nil {
		t.Fatal("zero vnodes accepted")
	}
}

func TestRingSpansSumToOne(t *testing.T) {
	r, err := NewRing([]string{"n1:1", "n2:1", "n3:1", "n4:1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range r.Spans() {
		if s <= 0 {
			t.Fatalf("non-positive span %v", s)
		}
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("spans sum to %v, want 1", total)
	}
}

func TestRingFirstLiveFailsOverInPreferenceOrder(t *testing.T) {
	r, err := NewRing([]string{"n1:1", "n2:1", "n3:1"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	allLive := map[string]bool{"n1:1": true, "n2:1": true, "n3:1": true}
	for id := bitvec.UserID(1); id <= 300; id++ {
		owners := r.Owners(id, 2)
		if got, ok := r.FirstLive(id, allLive); !ok || got != owners[0] {
			t.Fatalf("id %d: first live with all nodes up is %q, want owner %q", id, got, owners[0])
		}
		// Kill the owner: the record's replica must answer.
		oneDead := map[string]bool{}
		for n := range allLive {
			oneDead[n] = n != owners[0]
		}
		if got, ok := r.FirstLive(id, oneDead); !ok || got != owners[1] {
			t.Fatalf("id %d: first live with owner dead is %q, want replica %q", id, got, owners[1])
		}
		if _, ok := r.FirstLive(id, map[string]bool{}); ok {
			t.Fatalf("id %d: first live reported with nothing live", id)
		}
	}
}

// TestCompiledFiltersPartitionUsers is the dedup invariant of the exact
// scatter-gather: for any live set, each user id is owned by exactly one
// live node's filter.
func TestCompiledFiltersPartitionUsers(t *testing.T) {
	nodes := []string{"n1:1", "n2:1", "n3:1"}
	for _, live := range [][]string{
		{"n1:1", "n2:1", "n3:1"},
		{"n1:1", "n3:1"},
		{"n2:1"},
	} {
		filters := make([]func(bitvec.UserID) bool, len(live))
		for i, self := range live {
			f, err := CompileFilter(&wire.Filter{Nodes: nodes, VNodes: 32, Self: self, Live: live})
			if err != nil {
				t.Fatal(err)
			}
			filters[i] = f.Keep
		}
		for id := bitvec.UserID(1); id <= 500; id++ {
			owners := 0
			for _, f := range filters {
				if f(id) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("live=%v id=%d owned by %d filters, want exactly 1", live, id, owners)
			}
		}
	}
}

func TestCompileFilterValidates(t *testing.T) {
	nodes := []string{"n1:1", "n2:1"}
	cases := []*wire.Filter{
		{Nodes: nodes, VNodes: 8, Self: "nX:1", Live: nodes},            // self not a member
		{Nodes: nodes, VNodes: 8, Self: "n1:1", Live: nil},              // nothing live
		{Nodes: nodes, VNodes: 8, Self: "n1:1", Live: []string{"nX:1"}}, // live not a member
		{Nodes: nil, VNodes: 8, Self: "n1:1", Live: nodes},              // empty ring
	}
	for i, f := range cases {
		if _, err := CompileFilter(f); err == nil {
			t.Fatalf("case %d: invalid filter accepted", i)
		}
	}
	if keep, err := CompileFilter(nil); err != nil || keep != nil {
		t.Fatalf("nil filter must compile to nil predicate, got %v, %v", keep, err)
	}
}

// walkFilter is the ownership predicate as the filter's definition reads —
// one preference walk per id against the live set, and a second against
// the survivors for a recovery slice — kept as the oracle for the per-arc
// table CompileFilter precomputes.
func walkFilter(t *testing.T, f *wire.Filter) func(bitvec.UserID) bool {
	t.Helper()
	ring, err := NewRing(f.Nodes, int(f.VNodes))
	if err != nil {
		t.Fatal(err)
	}
	live, failed, survivors := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, n := range f.Live {
		live[n], survivors[n] = true, true
	}
	for _, n := range f.Failed {
		failed[n] = true
		delete(survivors, n)
	}
	return func(id bitvec.UserID) bool {
		if f.DomainBits > 0 && uint64(id)>>(64-uint(f.DomainBits)) != f.Domain {
			return false
		}
		owner, ok := ring.FirstLive(id, live)
		if len(failed) == 0 {
			return ok && owner == f.Self
		}
		if !ok || !failed[owner] {
			return false
		}
		next, ok := ring.FirstLive(id, survivors)
		return ok && next == f.Self
	}
}

// TestCompiledFilterMatchesWalk: over random memberships, vnode counts,
// live and failed sets and tenant domains, the compiled predicate — hash,
// binary search, table read — agrees with the per-id walk on every id.
func TestCompiledFilterMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		f := &wire.Filter{VNodes: uint32(1 + rng.Intn(70))}
		for i, n := 0, 1+rng.Intn(9); i < n; i++ {
			f.Nodes = append(f.Nodes, fmt.Sprintf("10.0.%d.%d:7171", rng.Intn(4), i))
		}
		if trial%50 == 0 { // the walk's >64-member arm
			for i := 0; i < 70; i++ {
				f.Nodes = append(f.Nodes, fmt.Sprintf("big-%d:1", i))
			}
		}
		rng.Shuffle(len(f.Nodes), func(i, j int) { f.Nodes[i], f.Nodes[j] = f.Nodes[j], f.Nodes[i] })
		for _, n := range f.Nodes[1:] {
			if rng.Intn(3) > 0 {
				f.Live = append(f.Live, n)
			}
		}
		for _, n := range f.Live {
			if rng.Intn(3) == 0 {
				f.Failed = append(f.Failed, n)
			}
		}
		f.Self = f.Nodes[0] // live, never failed
		f.Live = append(f.Live, f.Self)
		if rng.Intn(2) == 0 {
			f.DomainBits = uint8(1 + rng.Intn(3))
			f.Domain = uint64(rng.Intn(1 << f.DomainBits))
		}
		got, err := CompileFilter(f)
		if err != nil {
			t.Fatalf("trial %d: %+v: %v", trial, f, err)
		}
		want := walkFilter(t, f)
		check := func(id bitvec.UserID) {
			if got.Keep(id) != want(id) {
				t.Fatalf("trial %d: %+v: id %#x: compiled %v, walk %v", trial, f, uint64(id), got.Keep(id), want(id))
			}
		}
		for i := 0; i < 2000; i++ {
			check(bitvec.UserID(rng.Uint64()))
			check(bitvec.UserID(f.Domain<<(64-uint(f.DomainBits)) | rng.Uint64()>>f.DomainBits)) // in the domain
		}
	}
}

var benchKept int

// BenchmarkCompiledFilter prices the ownership predicate per id on the
// fleet's shape (3 members × 64 vnodes): what a cold keep mask costs per
// record.
func BenchmarkCompiledFilter(b *testing.B) {
	nodes := []string{"127.0.0.1:7171", "127.0.0.1:7172", "127.0.0.1:7173"}
	for _, bc := range []struct {
		name   string
		failed []string
	}{{"live", nil}, {"recovery", nodes[2:]}} {
		b.Run(bc.name, func(b *testing.B) {
			keep, err := CompileFilter(&wire.Filter{Nodes: nodes, VNodes: 64, Self: nodes[0], Live: nodes, Failed: bc.failed})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if keep.Keep(bitvec.UserID(i)) {
					benchKept++
				}
			}
		})
	}
}

// TestFilterKeyIsThePredicatesInputs: each of the seven fields the
// compiled predicate reads changes the key; the two it does not read, and
// the order and multiplicity of the live and failed sets, do not.  Nodes
// stays order-sensitive on purpose — a key too fine costs a miss, a key
// too coarse would serve one node's mask to another.
func TestFilterKeyIsThePredicatesInputs(t *testing.T) {
	base := func() *wire.Filter {
		return &wire.Filter{
			Epoch: 7, Budget: 500, VNodes: 64,
			Nodes: []string{"a:1", "b:1", "c:1", "d:1"}, Self: "a:1",
			Live: []string{"a:1", "b:1", "c:1"}, Failed: []string{"b:1", "c:1"},
			DomainBits: 8, Domain: 0x5a,
		}
	}
	key := FilterKey(base())
	if len(key) != 32 {
		t.Fatalf("key is %d bytes, want a 256-bit digest", len(key))
	}
	if compiled, err := CompileFilter(base()); err != nil || compiled.Key != key {
		t.Fatalf("CompileFilter's key differs from FilterKey (err %v)", err)
	}
	for name, c := range map[string]struct {
		change func(*wire.Filter)
		same   bool
	}{
		"nodes":           {change: func(f *wire.Filter) { f.Nodes = append(f.Nodes, "e:1") }},
		"nodes reordered": {change: func(f *wire.Filter) { f.Nodes[0], f.Nodes[3] = f.Nodes[3], f.Nodes[0] }},
		"vnodes":          {change: func(f *wire.Filter) { f.VNodes = 65 }},
		"self":            {change: func(f *wire.Filter) { f.Self = "d:1" }},
		"live":            {change: func(f *wire.Filter) { f.Live = append(f.Live, "d:1") }},
		"failed":          {change: func(f *wire.Filter) { f.Failed = f.Failed[:1] }},
		"no failed":       {change: func(f *wire.Filter) { f.Failed = nil }},
		"domain bits":     {change: func(f *wire.Filter) { f.DomainBits = 9 }},
		"domain":          {change: func(f *wire.Filter) { f.Domain = 0x5b }},
		"no domain":       {change: func(f *wire.Filter) { f.DomainBits, f.Domain = 0, 0 }},
		// A member moving between lists must not hash like the original.
		"live/failed boundary": {change: func(f *wire.Filter) {
			f.Live, f.Failed = []string{"a:1", "b:1"}, []string{"c:1", "b:1", "c:1"}
		}},

		"epoch":           {same: true, change: func(f *wire.Filter) { f.Epoch = 8 }},
		"budget":          {same: true, change: func(f *wire.Filter) { f.Budget = 0 }},
		"live permuted":   {same: true, change: func(f *wire.Filter) { f.Live = []string{"c:1", "a:1", "b:1"} }},
		"live repeated":   {same: true, change: func(f *wire.Filter) { f.Live = append(f.Live, "a:1") }},
		"failed permuted": {same: true, change: func(f *wire.Filter) { f.Failed = []string{"c:1", "b:1"} }},
		"failed repeated": {same: true, change: func(f *wire.Filter) { f.Failed = append(f.Failed, "b:1") }},
	} {
		f := base()
		c.change(f)
		if got := FilterKey(f) == key; got != c.same {
			t.Errorf("%s: key equal = %v, want %v", name, got, c.same)
		}
	}
	// Without domain bits the predicate does not read Domain; nor does the key.
	f, g := base(), base()
	f.DomainBits, g.DomainBits, g.Domain = 0, 0, 0
	if FilterKey(f) != FilterKey(g) {
		t.Error("a domain value without domain bits changed the key")
	}
}
