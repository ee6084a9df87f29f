package bitvec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// string is the one allocation: the tag of a subset of up to 16 positions
// is built on the stack, a longer one in the string's own bytes.
func (s Subset) Key() string {
	if len(s.positions) <= 16 {
		var buf [8 + 8*16]byte
		return string(s.AppendTag(buf[:0]))
	}
	var b strings.Builder
	b.Grow(s.TagLen())
	var word [8]byte
	binary.BigEndian.PutUint64(word[:], uint64(len(s.positions)))
	b.Write(word[:])
	for _, p := range s.positions {
		binary.BigEndian.PutUint64(word[:], uint64(p))
		b.Write(word[:])
	}
	return b.String()
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
	n, tokens := 0, 0
	for i := 0; i < len(s.positions); tokens++ {
		k := s.stretchAt(i)
		n += UvarintLen(uint64(s.positions[i]) << 1)
		if k > 1 {
			n++ // k − 2 < 128
		}
		i += k
	}
	return UvarintLen(uint64(tokens)) + n
}

// UvarintLen returns the size of x as a uvarint (binary.AppendUvarint),
// the integer of the compact encoding and of the store's headers.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// maxStretch is the most positions one token of a compact encoding stands
// for.  A token takes at least 2 bytes to name a stretch, so a name stands
// for at most 8 positions a byte, and a parsed subset's positions and its
// Tag, 16 bytes a position, take at most 128 bytes a byte of name: no
// field of the encoding sizes an allocation.  A longer stretch takes a
// token every 16 positions.
const maxStretch = 16

// stretchAt returns how many positions from the i-th on, in subset order,
// make one token's stretch: each one more than the one before, at most
// maxStretch of them.
func (s Subset) stretchAt(i int) int {
	k := 1
	for k < maxStretch && i+k < len(s.positions) && s.positions[i+k] == s.positions[i+k-1]+1 {
		k++
	}
	return k
}

// AppendCompact appends the subset's compact encoding: a uvarint count of
// tokens, then a token for each stretch of consecutive positions in
// subset order — at most maxStretch of them, as many as follow — a
// uvarint start<<1 | more, and where more is set, a byte holding the
// stretch's length less 2.  A stretch costs 2 bytes while it starts below
// 64, so a prefix of the field, Range(0, k), costs 3 bytes with its count
// to k = 16 (P10's field is 10 bits), where the Tag spends 8 a position,
// and a lone position below 64 costs a byte; a longer stretch costs 2 or
// 3 bytes every 16 positions.  The count says how many tokens follow and
// a uvarint ends itself, so the encoding is injective and no subset's is
// a prefix of another's.  It keys the plan cache's entries and names a
// run's subset on disk; the PRF message keeps the Tag.
func (s Subset) AppendCompact(dst []byte) []byte {
	tokens := 0
	for i := 0; i < len(s.positions); i += s.stretchAt(i) {
		tokens++
	}
	dst = binary.AppendUvarint(dst, uint64(tokens))
	for i := 0; i < len(s.positions); {
		k := s.stretchAt(i)
		if start := uint64(s.positions[i]) << 1; k == 1 {
			dst = binary.AppendUvarint(dst, start)
		} else {
			dst = append(binary.AppendUvarint(dst, start|1), byte(k-2))
		}
		i += k
	}
	return dst
}

// CompactSize returns how many bytes the compact encoding at the front of
// b occupies, reading no further.  It refuses what ParseCompact refuses but
// a repeated position: a uvarint cut short, longer than 64 bits or not in
// its fewest bytes, a count of tokens the bytes could not hold, a length
// past maxStretch, a token that continues a stretch of fewer than
// maxStretch positions before it and a stretch past the largest int — so
// that an encoding it accepts is the only one of its positions.
func CompactSize(b []byte) (int, error) {
	size, _, err := eachStretch(b, nil)
	return size, err
}

// eachStretch reads the compact encoding at the front of b, calling fn,
// when it is not nil, with each of its tokens' stretches — first position
// and length — and returns the encoding's size and its count of
// positions.
func eachStretch(b []byte, fn func(start, n int)) (size, positions int, err error) {
	count, at, err := compactUvarint(b, 0)
	if err != nil {
		return 0, 0, err
	}
	if count > uint64(len(b)-at) {
		return 0, 0, fmt.Errorf("bitvec: compact subset claims %d stretches in %d bytes", count, len(b)-at)
	}
	var next, last uint64 // the position that would continue the last stretch, and its length
	for i := uint64(0); i < count; i++ {
		var token, n uint64 = 0, 1
		if at < len(b) && b[at] < 0x80 {
			token, at = uint64(b[at]), at+1 // a token below 128, the common case
		} else if token, at, err = compactUvarint(b, at); err != nil {
			return 0, 0, err
		}
		start := token >> 1
		if token&1 != 0 {
			if at == len(b) {
				return 0, 0, fmt.Errorf("bitvec: compact subset cut short at byte %d", at)
			}
			if n = uint64(b[at]) + 2; n > maxStretch {
				return 0, 0, fmt.Errorf("bitvec: compact subset stretch of %d positions in one token", n)
			}
			at++
		}
		switch {
		case i > 0 && start == next && last < maxStretch:
			return 0, 0, fmt.Errorf("bitvec: compact subset token %d continues the stretch before it", i)
		case start > math.MaxInt-(n-1):
			return 0, 0, fmt.Errorf("bitvec: compact subset stretch of %d from %d out of range", n, start)
		}
		if fn != nil {
			fn(int(start), int(n))
		}
		next, last, positions = start+n, n, positions+int(n)
	}
	return at, positions, nil
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
// CompactSize refuses and a position two stretches share, so that any
// bytes it accepts are exactly what AppendCompact writes for the subset it
// returns.  Stretches in ascending order share no position; others are
// checked by their bounds, sorted, never position by position.
func ParseCompact(b []byte) (Subset, int, error) {
	size, n, err := eachStretch(b, nil)
	if err != nil {
		return Subset{}, 0, err
	}
	pos, ascending := make([]int, 0, n), true
	var spans [][2]int // each stretch's start and end, where they do not ascend
	eachStretch(b, func(start, n int) {
		if len(pos) > 0 && start <= pos[len(pos)-1] {
			ascending = false
		}
		for p := range n {
			pos = append(pos, start+p)
		}
	})
	if !ascending {
		eachStretch(b, func(start, n int) { spans = append(spans, [2]int{start, start + n - 1}) })
		slices.SortFunc(spans, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
		for i := 1; i < len(spans); i++ {
			if spans[i][0] <= spans[i-1][1] {
				return Subset{}, 0, fmt.Errorf("bitvec: compact subset repeats position %d", spans[i][0])
			}
		}
	}
	return Subset{positions: pos}, size, nil
}

// String renders the subset as "{p1,p2,...}".
func (s Subset) String() string {
	parts := make([]string, len(s.positions))
	for i, p := range s.positions {
		parts[i] = strconv.Itoa(p)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
