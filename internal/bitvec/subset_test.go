package bitvec

import (
	"testing"
	"testing/quick"
)

func TestNewSubsetValidation(t *testing.T) {
	if _, err := NewSubset(1, 2, 1); err == nil {
		t.Error("duplicate position accepted")
	}
	if _, err := NewSubset(-1); err == nil {
		t.Error("negative position accepted")
	}
	s, err := NewSubset(4, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.At(0) != 4 || s.At(1) != 0 || s.At(2) != 2 {
		t.Errorf("subset does not preserve order: %v", s.Positions())
	}
}

func TestRange(t *testing.T) {
	s := Range(3, 7)
	want := []int{3, 4, 5, 6}
	got := s.Positions()
	if len(got) != len(want) {
		t.Fatalf("Range(3,7) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range(3,7) = %v, want %v", got, want)
		}
	}
	if Range(2, 2).Len() != 0 {
		t.Error("empty range has nonzero length")
	}
}

func TestProject(t *testing.T) {
	d := MustFromString("10110")
	s := MustSubset(0, 3, 4)
	if got := s.Project(d); got.String() != "110" {
		t.Errorf("projection = %s, want 110", got)
	}
	// Order matters.
	s2 := MustSubset(4, 3, 0)
	if got := s2.Project(d); got.String() != "011" {
		t.Errorf("reordered projection = %s, want 011", got)
	}
}

// ProjectInto reuses the destination's storage, so whatever an earlier and
// wider projection left there must not show through, and a destination too
// small must grow.
func TestProjectIntoReusesStorage(t *testing.T) {
	wide := Range(0, 70)
	ones := New(70)
	for i := 0; i < 70; i++ {
		ones.Set(i, true)
	}
	buf := wide.ProjectInto(Vector{}, ones)
	if !buf.Equal(ones) {
		t.Fatalf("projection grown from nothing = %s", buf)
	}
	d := MustFromString("10110")
	s := MustSubset(4, 3, 0)
	got := s.ProjectInto(buf, d)
	if !got.Equal(s.Project(d)) || got.String() != "011" {
		t.Errorf("projection into dirty storage = %s, want 011", got)
	}
	if n := testing.AllocsPerRun(100, func() { got = s.ProjectInto(got, d) }); n != 0 {
		t.Errorf("ProjectInto with room allocates %v times a call", n)
	}
}

func TestContainsAndMax(t *testing.T) {
	s := MustSubset(5, 1, 9)
	if !s.Contains(9) || s.Contains(2) {
		t.Error("Contains is wrong")
	}
	if s.Max() != 9 {
		t.Errorf("Max = %d, want 9", s.Max())
	}
	if MustSubset().Max() != -1 {
		t.Error("Max of empty subset should be -1")
	}
}

func TestUnion(t *testing.T) {
	a := MustSubset(0, 2)
	b := MustSubset(2, 5)
	u := a.Union(b)
	want := []int{0, 2, 5}
	got := u.Positions()
	if len(got) != len(want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Union = %v, want %v", got, want)
		}
	}
}

func TestEqualAndSameSet(t *testing.T) {
	a := MustSubset(1, 2, 3)
	b := MustSubset(3, 2, 1)
	if a.Equal(b) {
		t.Error("order-sensitive Equal matched different orders")
	}
	if !a.SameSet(b) {
		t.Error("SameSet failed for a permutation")
	}
	if a.SameSet(MustSubset(1, 2)) {
		t.Error("SameSet matched subsets of different size")
	}
}

func TestTagRoundTrip(t *testing.T) {
	subsets := []Subset{MustSubset(), MustSubset(0), MustSubset(7, 3, 100)}
	for _, s := range subsets {
		back, err := ParseTag(s.Tag())
		if err != nil {
			t.Fatalf("ParseTag(%v): %v", s, err)
		}
		if !back.Equal(s) {
			t.Errorf("round trip of %v gave %v", s, back)
		}
	}
	if _, err := ParseTag([]byte{1}); err == nil {
		t.Error("ParseTag accepted a short tag")
	}
	long := MustSubset(1, 2).Tag()
	if _, err := ParseTag(long[:len(long)-3]); err == nil {
		t.Error("ParseTag accepted a truncated tag")
	}
}

func TestTagInjectiveProperty(t *testing.T) {
	prop := func(a, b []uint8) bool {
		mk := func(xs []uint8) Subset {
			seen := map[int]bool{}
			var pos []int
			for _, x := range xs {
				p := int(x) % 32
				if !seen[p] {
					seen[p] = true
					pos = append(pos, p)
				}
			}
			return MustSubset(pos...)
		}
		sa, sb := mk(a), mk(b)
		if sa.Equal(sb) {
			return string(sa.Tag()) == string(sb.Tag())
		}
		return string(sa.Tag()) != string(sb.Tag())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetString(t *testing.T) {
	if s := MustSubset(3, 1).String(); s != "{3,1}" {
		t.Errorf("String = %q", s)
	}
	if s := MustSubset().String(); s != "{}" {
		t.Errorf("empty String = %q", s)
	}
}
