package bitvec

import (
	"bytes"
	"encoding/binary"
	"math"
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

// TestCompactRoundTrip: the compact encoding names each stretch of
// consecutive positions once — a byte for a lone position below 64, 2 for
// a stretch from below 64 of up to 16 positions, so that the prefix
// subsets P1, P2 and P10 cost 2, 3 and 3 bytes with the count, and a
// token every 16 positions of a longer stretch, each continuing the one
// before — with the uvarints straddling their byte boundaries, and parses
// back from the front of longer bytes.  Bytes no writer writes are
// refused: a padded uvarint, a count of tokens the bytes cannot hold, a
// token of more than 16 positions, a token that continues a stretch of
// fewer than 16 before it, a position two stretches share, a stretch past
// the largest int — a lone position's token has no room to pass it — and
// an encoding cut short.  A stretch of one has no form with a length — a
// length says 2 or more — so it is written only as a lone position.
func TestCompactRoundTrip(t *testing.T) {
	for _, c := range []struct {
		s    Subset
		want []byte
	}{
		{MustSubset(), []byte{0}},
		{MustSubset(0), []byte{1, 0}},
		{Range(0, 2), []byte{1, 1, 0}},
		{Range(0, 10), []byte{1, 1, 8}},
		{MustSubset(0, 2, 4), []byte{3, 0, 4, 8}},
		{MustSubset(63, 64), []byte{1, 0x7F, 0}},
		{MustSubset(64), []byte{1, 0x80, 0x01}},
		{MustSubset(5, 6, 7, 1, 9, 10), []byte{3, 11, 1, 2, 19, 0}},
		{MustSubset(3, 2, 1), []byte{3, 6, 4, 2}},
		{Range(0, 16), []byte{1, 1, 14}},
		{Range(0, 17), []byte{2, 1, 14, 32}},
		{Range(60, 100), []byte{3, 121, 14, 0x99, 0x01, 14, 0xB9, 0x01, 6}},
		{MustSubset(16, 17, 0, 1, 2), []byte{2, 33, 0, 1, 1}},
		{MustSubset(8191, 8192, 8193), []byte{1, 0xFF, 0x7F, 1}},
		{MustSubset(8192, 8193, 8194), []byte{1, 0x81, 0x80, 0x01, 1}},
		{MustSubset(math.MaxInt), binary.AppendUvarint([]byte{1}, 1<<64-2)},
		{MustSubset(math.MaxInt-1, math.MaxInt), append(binary.AppendUvarint([]byte{1}, 1<<64-3), 0)},
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
	// A stretch as long as a wire tag's room in a 1 MiB frame: 8192
	// tokens, at least 2 bytes each, 3 from position 64 and 4 from 8192.
	long := Range(0, 1<<17)
	if got := long.AppendCompact(nil); len(got) != long.CompactLen() || len(got) != 2+4*2+508*3+7680*4 {
		t.Fatalf("the long stretch encodes in %d bytes (CompactLen %d)", len(got), long.CompactLen())
	} else if s, _, err := ParseCompact(got); err != nil || !s.Equal(long) {
		t.Fatalf("the long stretch parses to %d positions, %v", s.Len(), err)
	} else if s.Key() != string(long.Tag()) {
		t.Fatal("the long stretch's Key is not its Tag")
	}
	for name, b := range map[string][]byte{
		"empty":                      {},
		"a padded count":             {0x81, 0x00, 0},
		"a padded position":          {1, 0x80, 0x00},
		"a zero-padded zero":         {1, 0x80, 0x80, 0x00},
		"a padded length":            {1, 1, 0x80, 0x00},
		"a count past the end":       {3, 0, 2},
		"a position cut short":       {1, 0x80},
		"a length cut short":         {1, 1},
		"a repeated position":        {2, 10, 10},
		"a continuing position":      {2, 10, 12},
		"a continuing stretch":       {2, 1, 0, 4},
		"a stretch continued":        {2, 10, 13, 0},
		"overlapping stretches":      {2, 1, 3, 5, 0},
		"a position inside":          {2, 1, 3, 4},
		"a position past int":        append(binary.AppendUvarint([]byte{1}, 1<<64-1), 0),
		"17 positions in one token":  {1, 1, 15},
		"a short stretch continued":  {2, 1, 13, 30},
		"a full stretch overlapped":  {2, 1, 14, 30},
		"a stretch inside another":   {2, 1, 14, 5, 2},
		"a length that wraps past 0": binary.AppendUvarint([]byte{1, 1}, 1<<64-1),
		"an overlong uvarint":        {1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	} {
		if s, n, err := ParseCompact(b); err == nil {
			t.Fatalf("%s (%x) parses to %v in %d bytes", name, b, s, n)
		}
	}
}

// FuzzSubsetCompact: a subset drawn from the fuzzer's bytes — scattered
// positions and stretches of them — round-trips through its compact
// encoding, also with bytes after it, and any bytes ParseCompact accepts
// are exactly the encoding of the subset it returns, in CompactLen bytes —
// one byte form a subset, as the store's run sets and the plan cache's
// keys, both keyed by those bytes, need.  Among the seeds: a token that
// continues a short stretch before it, a non-minimal uvarint, a position
// two stretches share, a stretch past the largest int, a token of 17
// positions and one continuing a token of 16.
func FuzzSubsetCompact(f *testing.F) {
	f.Add([]byte{3, 0, 4, 8})
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 8})
	f.Add([]byte{3, 11, 1, 2, 19, 0})
	f.Add([]byte{2, 0x80, 0x01, 0x7F, 0})
	f.Add([]byte{1, 0x80, 0x00})
	f.Add([]byte{1, 1, 0x80, 0x00})
	f.Add([]byte{2, 10, 12})
	f.Add([]byte{2, 1, 0, 4})
	f.Add([]byte{2, 1, 3, 4})
	f.Add(append(binary.AppendUvarint([]byte{1}, 1<<64-1), 0))
	f.Add([]byte{1, 1, 15})
	f.Add([]byte{2, 1, 14, 32})
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, n, err := ParseCompact(b); err == nil {
			if enc := s.AppendCompact(nil); !bytes.Equal(enc, b[:n]) || s.CompactLen() != n {
				t.Fatalf("%x parses to %v, which encodes as %x (CompactLen %d)", b[:n], s, enc, s.CompactLen())
			}
			if size, err := CompactSize(b); err != nil || size != n {
				t.Fatalf("%x: CompactSize = %d, %v; ParseCompact took %d", b, size, err, n)
			}
		} else if size, err := CompactSize(b); err == nil {
			// Only a position two stretches share passes CompactSize.
			if _, err := NewSubset(expand(t, b[:size])...); err == nil {
				t.Fatalf("%x: CompactSize takes %d bytes, ParseCompact refuses them", b, size)
			}
		}
		var pos []int
		seen := make(map[int]bool)
		for i := 0; i+3 <= len(b) && len(pos) < 40; i += 3 {
			p := int(uint32(b[i])|uint32(b[i+1])<<8|uint32(b[i+2])<<16) >> (b[i] % 24)
			// The low bits of the next byte stretch p over up to 32
			// positions, two tokens' worth.
			for k := 0; k <= int(b[i+1]&31) && !seen[p+k]; k++ {
				seen[p+k], pos = true, append(pos, p+k)
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

// expand lists the positions of the compact encoding b, which CompactSize
// accepts, stretch by stretch.
func expand(t *testing.T, b []byte) []int {
	t.Helper()
	var pos []int
	if _, _, err := eachStretch(b, func(start, n int) {
		for p := range n {
			pos = append(pos, start+p)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return pos
}
