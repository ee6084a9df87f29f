package bitvec

import (
	"bytes"
	"encoding/binary"
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

// TestCompactRoundTrip: the compact encoding of subsets whose positions
// straddle the uvarint byte boundaries is a byte a position below 128 and
// parses back from the front of longer bytes; bytes no writer writes —
// a padded uvarint, a count the bytes cannot hold, a repeated position, a
// position past the largest int, an encoding cut short — are refused.
func TestCompactRoundTrip(t *testing.T) {
	for _, c := range []struct {
		s    Subset
		want []byte
	}{
		{MustSubset(), []byte{0}},
		{MustSubset(0, 2, 4), []byte{3, 0, 2, 4}},
		{Range(0, 10), []byte{10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{MustSubset(127, 128, 16383, 16384), []byte{4, 0x7F, 0x80, 0x01, 0xFF, 0x7F, 0x80, 0x80, 0x01}},
	} {
		got := c.s.AppendCompact(nil)
		if !bytes.Equal(got, c.want) || c.s.CompactLen() != len(got) {
			t.Fatalf("%v encodes as %x (CompactLen %d), want %x", c.s, got, c.s.CompactLen(), c.want)
		}
		back, n, err := ParseCompact(append(got, 0xFF, 0x00))
		if err != nil || n != len(got) || !back.Equal(c.s) {
			t.Fatalf("%x parses to %v, %d, %v", got, back, n, err)
		}
	}
	for name, b := range map[string][]byte{
		"empty":                {},
		"a padded count":       {0x81, 0x00, 1},
		"a padded position":    {1, 0x80, 0x00},
		"a zero-padded zero":   {1, 0x80, 0x80, 0x00},
		"a count past the end": {3, 1, 2},
		"a position cut short": {1, 0x80},
		"a repeated position":  {2, 5, 5},
		"a position past int":  binary.AppendUvarint([]byte{1}, 1<<63),
		"an overlong uvarint":  {1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	} {
		if s, n, err := ParseCompact(b); err == nil {
			t.Fatalf("%s (%x) parses to %v in %d bytes", name, b, s, n)
		}
	}
}

// FuzzSubsetCompact: a subset drawn from the fuzzer's bytes round-trips
// through its compact encoding, also with bytes after it, and any bytes
// ParseCompact accepts are exactly the encoding of the subset it returns —
// one byte form a subset, as the store's run sets, keyed by those bytes,
// need.
func FuzzSubsetCompact(f *testing.F) {
	f.Add([]byte{3, 0, 2, 4})
	f.Add([]byte{0})
	f.Add([]byte{2, 0x80, 0x01, 0x7F})
	f.Add([]byte{1, 0x80, 0x00})
	f.Add([]byte{2, 5, 5})
	f.Add(binary.AppendUvarint([]byte{1}, 1<<63))
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, n, err := ParseCompact(b); err == nil {
			if enc := s.AppendCompact(nil); !bytes.Equal(enc, b[:n]) || s.CompactLen() != n {
				t.Fatalf("%x parses to %v, which encodes as %x (CompactLen %d)", b[:n], s, enc, s.CompactLen())
			}
			if size, err := CompactSize(b); err != nil || size != n {
				t.Fatalf("%x: CompactSize = %d, %v; ParseCompact took %d", b, size, err, n)
			}
		}
		var pos []int
		seen := make(map[int]bool)
		for i := 0; i+3 <= len(b) && len(pos) < 40; i += 3 {
			p := int(uint32(b[i])|uint32(b[i+1])<<8|uint32(b[i+2])<<16) >> (b[i] % 24)
			if !seen[p] {
				seen[p], pos = true, append(pos, p)
			}
		}
		s := MustSubset(pos...)
		enc := s.AppendCompact(nil)
		back, n, err := ParseCompact(append(enc, b...))
		if err != nil || n != len(enc) || !back.Equal(s) || s.CompactLen() != len(enc) {
			t.Fatalf("%v encodes as %x and parses back to %v, %d, %v", s, enc, back, n, err)
		}
	})
}
