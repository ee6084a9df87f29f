package bitvec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Subset identifies a subset B of attribute positions in a profile, in a
// fixed order.  The order matters: the projection d_B reads the profile bits
// in subset order, and the sketch of a subset commits to that order.
// Subsets are immutable once created.
type Subset struct {
	positions []int
}

// NewSubset validates and returns a subset over the given attribute
// positions.  Positions must be non-negative and distinct; they are kept in
// the order given.  An error is returned otherwise.
func NewSubset(positions ...int) (Subset, error) {
	seen := make(map[int]struct{}, len(positions))
	for _, p := range positions {
		if p < 0 {
			return Subset{}, fmt.Errorf("bitvec: negative attribute position %d", p)
		}
		if _, dup := seen[p]; dup {
			return Subset{}, fmt.Errorf("bitvec: duplicate attribute position %d", p)
		}
		seen[p] = struct{}{}
	}
	cp := make([]int, len(positions))
	copy(cp, positions)
	return Subset{positions: cp}, nil
}

// MustSubset is NewSubset that panics on invalid input.
func MustSubset(positions ...int) Subset {
	s, err := NewSubset(positions...)
	if err != nil {
		panic(err)
	}
	return s
}

// Range returns the subset {lo, lo+1, ..., hi-1}.
func Range(lo, hi int) Subset {
	if hi < lo {
		panic(fmt.Sprintf("bitvec: invalid range [%d,%d)", lo, hi))
	}
	pos := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		pos = append(pos, i)
	}
	return Subset{positions: pos}
}

// Len returns the number of attributes in the subset.
func (s Subset) Len() int { return len(s.positions) }

// Positions returns a copy of the attribute positions in subset order.
func (s Subset) Positions() []int {
	cp := make([]int, len(s.positions))
	copy(cp, s.positions)
	return cp
}

// At returns the i-th attribute position in subset order.
func (s Subset) At(i int) int { return s.positions[i] }

// Contains reports whether position p belongs to the subset.
func (s Subset) Contains(p int) bool {
	for _, q := range s.positions {
		if q == p {
			return true
		}
	}
	return false
}

// Max returns the largest attribute position in the subset, or -1 if the
// subset is empty.  Profiles must be at least Max()+1 bits long to be
// projected.
func (s Subset) Max() int {
	m := -1
	for _, p := range s.positions {
		if p > m {
			m = p
		}
	}
	return m
}

// Project returns the projection d_B: the bits of d at the subset's
// positions, in subset order.  It panics if the profile is too short.
func (s Subset) Project(d Vector) Vector { return s.ProjectInto(Vector{}, d) }

// ProjectInto is Project building its result in dst's storage when that is
// large enough (dst's old contents are lost), so a caller that projects once
// per record — Algorithm 1 does — allocates once, not per call.
func (s Subset) ProjectInto(dst, d Vector) Vector {
	n := len(s.positions)
	if nw := (n + 63) / 64; cap(dst.words) < nw {
		dst = New(n)
	} else {
		dst = Vector{n: n, words: dst.words[:nw]}
		clear(dst.words)
	}
	for i, p := range s.positions {
		if d.Get(p) {
			dst.Set(i, true)
		}
	}
	return dst
}

// Union returns a subset containing the positions of s followed by the
// positions of t that are not already present.  The resulting order is the
// one Appendix F uses when gluing per-subset sketches into a query over
// B = B_1 ∪ ... ∪ B_q.
func (s Subset) Union(t Subset) Subset {
	out := make([]int, 0, len(s.positions)+len(t.positions))
	out = append(out, s.positions...)
	for _, p := range t.positions {
		if !s.Contains(p) {
			out = append(out, p)
		}
	}
	return Subset{positions: out}
}

// Equal reports whether s and t contain the same positions in the same
// order.
func (s Subset) Equal(t Subset) bool {
	if len(s.positions) != len(t.positions) {
		return false
	}
	for i := range s.positions {
		if s.positions[i] != t.positions[i] {
			return false
		}
	}
	return true
}

// SameSet reports whether s and t contain the same positions regardless of
// order.
func (s Subset) SameSet(t Subset) bool {
	if len(s.positions) != len(t.positions) {
		return false
	}
	a := append([]int(nil), s.positions...)
	b := append([]int(nil), t.positions...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Tag returns a canonical byte encoding of the subset, used as the B
// component of the PRF input tuple and as a map key.
func (s Subset) Tag() []byte {
	return s.AppendTag(make([]byte, 0, s.TagLen()))
}

// TagLen returns the length of the Tag encoding.
func (s Subset) TagLen() int { return 8 + 8*len(s.positions) }

// AppendTag appends the Tag encoding to dst, for callers that assemble PRF
// messages into reusable scratch without allocating.
func (s Subset) AppendTag(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(s.positions)))
	for _, p := range s.positions {
		dst = binary.BigEndian.AppendUint64(dst, uint64(p))
	}
	return dst
}

// Key returns the Tag as a string, convenient for use as a map key.  The
// tag of a subset of up to 16 positions is built on the stack, so the
// string is the one allocation.
func (s Subset) Key() string {
	var buf [8 + 8*16]byte
	return string(s.AppendTag(buf[:0]))
}

// ParseTag reconstructs a subset from its Tag encoding.
func ParseTag(b []byte) (Subset, error) {
	if len(b) < 8 {
		return Subset{}, fmt.Errorf("bitvec: subset tag too short (%d bytes)", len(b))
	}
	// Bound the claimed count by what the buffer could possibly hold
	// before converting to int: a hostile 64-bit count can otherwise
	// overflow 8+8*n right back onto len(b) and reach make() huge or
	// negative.
	n64 := binary.BigEndian.Uint64(b)
	if n64 > uint64(len(b)-8)/8 {
		return Subset{}, fmt.Errorf("bitvec: subset tag claims %d positions in %d bytes", n64, len(b))
	}
	n := int(n64)
	if len(b) != 8+8*n {
		return Subset{}, fmt.Errorf("bitvec: subset tag for %d positions must be %d bytes, got %d", n, 8+8*n, len(b))
	}
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		pos[i] = int(binary.BigEndian.Uint64(b[8+8*i:]))
	}
	return NewSubset(pos...)
}

// CompactLen returns the length of the compact encoding (AppendCompact).
func (s Subset) CompactLen() int {
	n := uvarintLen(uint64(len(s.positions)))
	for _, p := range s.positions {
		n += uvarintLen(uint64(p))
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// AppendCompact appends the subset's compact encoding: its position count,
// then its positions in subset order, uvarints all — a byte a position
// below 128, where the Tag spends 8.  The count says how many positions
// follow and a uvarint ends itself, so the encoding is injective and no
// subset's is a prefix of another's.  It keys the plan cache's entries and
// names a run's subset on disk; the PRF message keeps the Tag.
func (s Subset) AppendCompact(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.positions)))
	for _, p := range s.positions {
		dst = binary.AppendUvarint(dst, uint64(p))
	}
	return dst
}

// CompactSize returns how many bytes the compact encoding at the front of
// b occupies, reading no further.  It refuses a uvarint cut short, longer
// than 64 bits or not in its fewest bytes, and a count of positions the
// bytes could not hold, so that an encoding it accepts is the only one of
// its positions; what the positions are is ParseCompact's to check.
func CompactSize(b []byte) (int, error) {
	count, at, err := compactUvarint(b, 0)
	if err != nil {
		return 0, err
	}
	if count > uint64(len(b)-at) {
		return 0, fmt.Errorf("bitvec: compact subset claims %d positions in %d bytes", count, len(b)-at)
	}
	for i := uint64(0); i < count; i++ {
		if at < len(b) && b[at] < 0x80 {
			at++ // a position below 128, the common case
			continue
		}
		if _, at, err = compactUvarint(b, at); err != nil {
			return 0, err
		}
	}
	return at, nil
}

// compactUvarint reads the uvarint at b[at:], which must be minimal, and
// returns it and where it ends.
func compactUvarint(b []byte, at int) (uint64, int, error) {
	x, n := binary.Uvarint(b[at:])
	switch {
	case n <= 0:
		return 0, 0, fmt.Errorf("bitvec: compact subset cut short or overlong at byte %d", at)
	case n > 1 && b[at+n-1] == 0:
		return 0, 0, fmt.Errorf("bitvec: compact subset has a padded uvarint at byte %d", at)
	}
	return x, at + n, nil
}

// ParseCompact reconstructs the subset whose compact encoding is at the
// front of b and returns it and the encoding's size.  It refuses what
// CompactSize refuses and what NewSubset does — a position past the
// largest int, a repeated one — so that any bytes it accepts are exactly
// what AppendCompact writes for the subset it returns.
func ParseCompact(b []byte) (Subset, int, error) {
	size, err := CompactSize(b)
	if err != nil {
		return Subset{}, 0, err
	}
	count, at, _ := compactUvarint(b, 0)
	pos := make([]int, count)
	for i := range pos {
		var p uint64
		p, at, _ = compactUvarint(b, at)
		if p > math.MaxInt {
			return Subset{}, 0, fmt.Errorf("bitvec: compact subset position %d out of range", p)
		}
		pos[i] = int(p)
	}
	s, err := NewSubset(pos...)
	return s, size, err
}

// String renders the subset as "{p1,p2,...}".
func (s Subset) String() string {
	parts := make([]string, len(s.positions))
	for i, p := range s.positions {
		parts[i] = strconv.Itoa(p)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
