package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"sketchprivacy/internal/bitvec"
)

// IDBlockLen is how many ids share a block of an id column: one word of an
// evaluation bitmap, one segment block.
const IDBlockLen = 64

// rawIDWidth marks a block that holds its ids as they are, 8 bytes each:
// the bits of a raw id.
const rawIDWidth = 64

// maxDeltaWidth is the widest a block's differences are coded at: ids
// further apart are written raw.  Wider differences would still save a
// little — they are what ids hashed over 64 bits look like in a column of
// 2⁸ to 2³² of them — but a raw id is its own bytes wherever it stands, so
// a merge moves a stretch of a raw block with a copy, at any alignment,
// where differences must be summed and coded again: scattered ids fold at
// about the speed they did as a []uint64, and pay a byte a block.
const maxDeltaWidth = 32

// An id column is coded in blocks of IDBlockLen ids, the last one shorter:
//
//	1 byte  b, the block's width in bits (0..32, or 64)
//	b ≤ 32: the first id, 8 bytes big-endian, then each later id's
//	        difference from the one before it less one, b bits each, low
//	        bit first, ⌈(m−1)·b/8⌉ bytes, the pad bits of the last zero —
//	        the ids strictly ascend
//	b = 64: the ids themselves, 8 bytes big-endian each, in whatever order
//	        they came
//
// b is the bit length of the block's widest difference less one — 0 for
// a block of consecutive ids, which is its first id and nothing more — or
// 64 where the ids do not ascend or two neighbours lie more than 2³²
// apart.  It is chosen block by block: users are numbered as they enrol
// under a tenant's tag, so a node's ids are dense, its differences mostly
// 1 or 2, and a block of them is 17 bytes, not 512, while a column holding
// two tenants' tags pays 8 bytes an id in the one block that straddles
// them and nothing else.  Raw blocks stay whole bytes at byte boundaries,
// so a stretch of one moves as bytes; ids that do not ascend — a log frame
// holds them as they came — and ids far apart — hashed ones — take that
// form, which costs the 8 bytes an id always did and the width byte: 1/64
// byte an id.  The coding is canonical — one width and zero pad bits for
// given ids — so equal blocks of as many ids are equal bytes, and a reader
// refuses any other.
//
// A block does not say how many ids it holds: 64 but in a column's last,
// which its reader knows from the column's length.  The bytes are the
// same in a table column, a log frame and a segment block (store/run.go),
// so an id column moves between them as bytes.

// idBlockSize is the coded size of a block of m ids at width w.
func idBlockSize(m, w int) int {
	if w == rawIDWidth {
		return 1 + 8*m
	}
	return 1 + 8 + ((m-1)*w+7)/8
}

// MinIDBlocksLen is the least an n-id column can occupy, however it is
// coded — 9 bytes a block, each of consecutive ids: what a reader holds a
// record count against before it believes it.
func MinIDBlocksLen(n int) int {
	return 9 * ((n + IDBlockLen - 1) / IDBlockLen)
}

// coded reports whether next, the id after prev, is coded as a difference:
// it exceeds prev by at most 2³².
func coded(prev, next bitvec.UserID) bool {
	return next > prev && next-prev-1 < 1<<maxDeltaWidth
}

// idBlockWidth returns the width a block of ids is coded at: the bit length
// of its widest difference less one, or rawIDWidth if two neighbours are
// not coded — the first such pair settles it, so ids that stay raw are
// read no further.
func idBlockWidth(ids []bitvec.UserID) int {
	var widest bitvec.UserID
	for i := 1; i < len(ids); i++ {
		if !coded(ids[i-1], ids[i]) {
			return rawIDWidth
		}
		widest |= ids[i] - ids[i-1] - 1
	}
	return bits.Len64(uint64(widest))
}

// deltaWords holds a block's differences as bits: 63 of at most 32 bits.
type deltaWords [((IDBlockLen-1)*maxDeltaWidth + 63) / 64]uint64

// appendIDBlock appends ids, at most a block's worth and at least one, as
// one block.
func appendIDBlock(dst []byte, ids []bitvec.UserID) []byte {
	w := idBlockWidth(ids)
	dst = append(dst, byte(w))
	if w == rawIDWidth {
		for _, id := range ids {
			dst = binary.BigEndian.AppendUint64(dst, uint64(id))
		}
		return dst
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(ids[0]))
	if w == 0 {
		return dst
	}
	var words deltaWords
	bw := newBitWriter(words[:], 0)
	for i := 1; i < len(ids); i++ {
		bw.put(uint64(ids[i]-ids[i-1]-1), w)
	}
	bw.flush()
	return appendBitsLE(dst, words[:], 0, (len(ids)-1)*w)
}

// AppendIDBlocks appends ids, in the order given, as an id column: what a
// log frame holds of a run.
func AppendIDBlocks(dst []byte, ids []bitvec.UserID) []byte {
	for ; len(ids) > IDBlockLen; ids = ids[IDBlockLen:] {
		dst = appendIDBlock(dst, ids[:IDBlockLen])
	}
	if len(ids) > 0 {
		dst = appendIDBlock(dst, ids)
	}
	return dst
}

// decodeIDBlock decodes the first m ids of a block this package coded or
// checked — blk is exactly its bytes, and it holds at least m ids — into
// dst.
func decodeIDBlock(blk []byte, m int, dst *[IDBlockLen]bitvec.UserID) {
	w, body := int(blk[0]), blk[1:]
	if w == rawIDWidth {
		for i := range dst[:m] {
			dst[i] = bitvec.UserID(binary.BigEndian.Uint64(body[8*i:]))
		}
		return
	}
	id := bitvec.UserID(binary.BigEndian.Uint64(body))
	if w == 0 {
		for i := range dst[:m] {
			dst[i] = id + bitvec.UserID(i)
		}
		return
	}
	// The differences less one are read off the low end of x, a window of
	// 64 bits of the body from a byte on: the whole body where it is no
	// longer, and otherwise as many values as 57 bits hold, the next window
	// starting at the byte of the next value.  Id i is the first plus i
	// plus the sum of the first i values, so that only that sum waits on
	// the one before.
	body = body[8:]
	mask, shift := uint64(1)<<w-1, uint(w)&63
	per := m - 1
	if len(body) > 8 {
		per = 57 / w
	}
	dst[0] = id
	for i, p := 1, 0; i < m; p += per * w {
		var x uint64
		if b := p >> 3; b+8 <= len(body) {
			x = binary.LittleEndian.Uint64(body[b:])
		} else {
			x = loadLE(body[b:], 8*(len(body)-b))
		}
		x >>= p & 7
		for end := min(m, i+per); i < end; i++ {
			id += bitvec.UserID(x & mask)
			x >>= shift
			dst[i] = id + bitvec.UserID(i)
		}
	}
}

// Ascends reports whether ids strictly ascend.
func Ascends(ids []bitvec.UserID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// checkIDWidth refuses a block width no writer writes: widths 33 to 63
// are malformed however well their differences ascend, since differences
// that wide are written raw.
func checkIDWidth(w int) error {
	if w > maxDeltaWidth && w != rawIDWidth {
		return fmt.Errorf("id block width %d", w)
	}
	return nil
}

// checkIDBlock decodes the block of m ids at the front of src, which is
// input, into dst and returns the block's size, or an error if src holds
// no block of m ids there coded as appendIDBlock codes them: at the width
// the ids call for — so a block of differences summing past 2⁶⁴, and a raw
// block of ids that could be differences, is malformed — with zero pad
// bits.
func checkIDBlock(src []byte, m int, dst *[IDBlockLen]bitvec.UserID) (size int, err error) {
	if m < 1 || m > IDBlockLen {
		return 0, fmt.Errorf("id block of %d ids", m)
	}
	if len(src) == 0 {
		return 0, errors.New("id block truncated")
	}
	w := int(src[0])
	if err := checkIDWidth(w); err != nil {
		return 0, err
	}
	if size = idBlockSize(m, w); size > len(src) {
		return 0, fmt.Errorf("id block of %d bytes in %d", size, len(src))
	}
	if pad := (m - 1) * w & 7; w != rawIDWidth && pad != 0 && src[size-1]>>pad != 0 {
		return 0, fmt.Errorf("pad bits %#x after %d differences of %d bits", src[size-1]>>pad, m-1, w)
	}
	decodeIDBlock(src[:size], m, dst)
	if want := idBlockWidth(dst[:m]); want != w {
		return 0, fmt.Errorf("id block of width %d holds ids of width %d", w, want)
	}
	return size, nil
}

// IDBlocksLen returns the size of the n-id column at the front of src,
// checking no more of it than its widths and that src holds it whole.
func IDBlocksLen(src []byte, n int) (int, error) {
	size := 0
	for ; n > 0; n -= IDBlockLen {
		if size >= len(src) {
			return 0, errors.New("id column truncated")
		}
		w := int(src[size])
		if err := checkIDWidth(w); err != nil {
			return 0, err
		}
		size += idBlockSize(min(n, IDBlockLen), w)
	}
	if size > len(src) {
		return 0, fmt.Errorf("id column of %d bytes in %d", size, len(src))
	}
	return size, nil
}

// DecodeIDBlocks appends to dst the n ids of the column at the front of
// src, in the order it holds them, and returns the column's size.  src is
// input: a malformed column appends nothing, and nothing is allocated for
// more than 64 ids for each 9 bytes of src (MinIDBlocksLen).
func DecodeIDBlocks(dst []bitvec.UserID, src []byte, n int) ([]bitvec.UserID, int, error) {
	if n < 0 || MinIDBlocksLen(n) > len(src) {
		return dst, 0, fmt.Errorf("id column of %d ids in %d bytes", n, len(src))
	}
	var buf [IDBlockLen]bitvec.UserID
	keep, size := len(dst), 0
	dst = slices.Grow(dst, n)
	for ; n > 0; n -= IDBlockLen {
		m := min(n, IDBlockLen)
		blk, err := checkIDBlock(src[size:], m, &buf)
		if err != nil {
			return dst[:keep], 0, err
		}
		dst, size = append(dst, buf[:m]...), size+blk
	}
	return dst, size, nil
}

// IDs is a column of user ids, strictly ascending, coded in blocks (see
// above): the ids of a table column, of a View, of a store's Run.  It is
// immutable — a write builds another — so values share their bytes freely.
// The zero IDs is empty.
type IDs struct {
	b []byte
	// offs locates the blocks the column spans: block k is b[offs[k]:
	// offs[k+1]].  Every block but the last of a built column is full.
	offs []int
	skip int // ids of block 0 that precede the column's first (Slice)
	n    int
	// last is the last id of the column this one was built as — of a slice,
	// an upper bound — so that the id of a user who enrolled after every
	// user here, which is what ingest mostly looks up, is settled unread.
	last bitvec.UserID
}

// Len returns the number of ids.
func (s IDs) Len() int { return s.n }

// block returns the bytes of block k.
func (s IDs) block(k int) []byte { return s.b[s.offs[k]:s.offs[k+1]] }

// BlockBytes returns window k of a column that was not sliced as it is
// coded, read-only: what a store writes of it.
func (s IDs) BlockBytes(k int) []byte {
	if s.skip != 0 {
		panic("sketch: BlockBytes of a sliced column")
	}
	return s.block(k)
}

// Bytes returns how many bytes the column's blocks occupy.
func (s IDs) Bytes() int {
	if len(s.offs) == 0 {
		return 0
	}
	return s.offs[len(s.offs)-1] - s.offs[0]
}

// held returns how many ids of block k, from its first on, lie before
// the column's end: all of them but in the last block of a slice, and 64
// but in the last block of a column.
func (s IDs) held(k int) int { return min(IDBlockLen, s.skip+s.n-k*IDBlockLen) }

// decode decodes the ids of block k that lie before the column's end into
// dst and returns how many they are.
func (s IDs) decode(k int, dst *[IDBlockLen]bitvec.UserID) int {
	m := s.held(k)
	decodeIDBlock(s.block(k), m, dst)
	return m
}

// base returns the first id of block k.
func (s IDs) base(k int) bitvec.UserID {
	return bitvec.UserID(binary.BigEndian.Uint64(s.b[s.offs[k]+1:]))
}

// At returns id i.
func (s IDs) At(i int) bitvec.UserID {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("sketch: id %d of %d", i, s.n))
	}
	var c IDCursor
	c.Reset(s)
	return c.At(i)
}

// seek returns the last block at or after lo whose first id is at or below
// id — block lo's is — looking first at block guess and galloping away
// from it: a column's first ids are read through its offsets, two loads
// apiece that miss the cache in a large column, and a guess within a few
// blocks is a probe or two where a binary search over them all is ten.
func (s IDs) seek(lo, guess int, id bitvec.UserID) int {
	blocks := len(s.offs) - 1
	l, h := guess, guess // base(l) ≤ id < base(h), once both are settled
	if s.base(guess) <= id {
		for step := 1; ; step *= 2 {
			if h = l + step; h >= blocks || s.base(h) > id {
				h = min(h, blocks)
				break
			}
			l = h
		}
	} else {
		for step := 1; ; step *= 2 {
			if l = h - step; l <= lo || s.base(l) <= id {
				l = max(l, lo)
				break
			}
			h = l
		}
	}
	return l + sort.Search(h-l-1, func(x int) bool { return s.base(l+1+x) > id })
}

// Find returns the position of id and true, or the position it would be
// inserted at and false: a search over the blocks' first ids — from where
// id would lie were the ids evenly spread, which dense ids and hashed ones
// both nearly are — then one block, searched where it lies if its ids are
// raw.
func (s IDs) Find(id bitvec.UserID) (int, bool) {
	if s.n == 0 || id < s.base(0) {
		return 0, false
	}
	if id > s.last {
		return s.n, false
	}
	blocks := len(s.offs) - 1
	guess := 0
	if first, last := s.base(0), s.base(blocks-1); id >= last {
		guess = blocks - 1
	} else {
		guess = int(float64(id-first) / float64(last-first) * float64(blocks-1))
	}
	k := s.seek(0, guess, id)
	var j int
	var found bool
	if blk := s.block(k); blk[0] == rawIDWidth {
		m := (len(blk) - 1) / 8
		j = sort.Search(m, func(x int) bool { return binary.BigEndian.Uint64(blk[1+8*x:]) >= uint64(id) })
		found = j < m && binary.BigEndian.Uint64(blk[1+8*j:]) == uint64(id)
	} else {
		var buf [IDBlockLen]bitvec.UserID
		j, found = slices.BinarySearch(buf[:s.decode(k, &buf)], id)
	}
	// A sliced column holds only part of its first and last blocks.
	switch at := k*IDBlockLen + j - s.skip; {
	case at < 0:
		return 0, false
	case at >= s.n:
		return s.n, false
	default:
		return at, found
	}
}

// Blocks returns how many IDBlockLen-id windows the column has.
func (s IDs) Blocks() int { return (s.n + IDBlockLen - 1) / IDBlockLen }

// Block decodes window k of the column — ids [64k, 64k+64), fewer at the
// end — into buf and returns them.  It is the cursor of every sequential
// reader: a record loop that fills bitmap word k reads Block(k).
func (s IDs) Block(k int, buf *[IDBlockLen]bitvec.UserID) []bitvec.UserID {
	m := min(IDBlockLen, s.n-k*IDBlockLen)
	if s.skip == 0 {
		s.decode(k, buf)
		return buf[:m]
	}
	// A sliced column's window straddles two blocks.
	var part [IDBlockLen]bitvec.UserID
	held := s.decode(k, &part)
	if got := copy(buf[:m], part[s.skip:held]); got < m {
		s.decode(k+1, &part)
		copy(buf[got:m], part[:])
	}
	return buf[:m]
}

// SameBlock reports whether window k of s and window k2 of o are one and
// the same block of ids, going by their bytes and lengths alone: true says
// the ids are equal, false says nothing.  A join of columns that the same
// users built skips whole blocks by it.
func (s IDs) SameBlock(k int, o IDs, k2 int) bool {
	return s.skip == 0 && o.skip == 0 && k2 < o.Blocks() && s.held(k) == o.held(k2) && bytes.Equal(s.block(k), o.block(k2))
}

// Same reports whether s and o are one column — the same coded bytes, read
// from the same id on — rather than equal ids coded twice: what lets a
// reader hand what it built over one column's ids to another.
func (s IDs) Same(o IDs) bool {
	return s.n == o.n && s.skip == o.skip && (s.n == 0 || &s.offs[0] == &o.offs[0] && &s.b[0] == &o.b[0])
}

// equal reports whether s and o, neither sliced, hold the same ids: by
// their lengths and last ids, and where those agree, by their bytes.
func (s IDs) equal(o IDs) bool {
	if s.n == 0 || s.n != o.n || s.last != o.last || s.skip != 0 || o.skip != 0 {
		return false
	}
	return bytes.Equal(s.b[s.offs[0]:s.offs[len(s.offs)-1]], o.b[o.offs[0]:o.offs[len(o.offs)-1]])
}

// AppendTo appends the ids to dst.
func (s IDs) AppendTo(dst []bitvec.UserID) []bitvec.UserID {
	var buf [IDBlockLen]bitvec.UserID
	dst = slices.Grow(dst, s.n)
	for k, blocks := 0, s.Blocks(); k < blocks; k++ {
		dst = append(dst, s.Block(k, &buf)...)
	}
	return dst
}

// Slice returns ids [lo, hi) as a column sharing s's bytes.
func (s IDs) Slice(lo, hi int) IDs {
	if lo < 0 || hi < lo || hi > s.n {
		panic(fmt.Sprintf("sketch: ids [%d,%d) of %d", lo, hi, s.n))
	}
	if lo == hi {
		return IDs{}
	}
	lo, hi = lo+s.skip, hi+s.skip
	return IDs{
		b:    s.b,
		offs: s.offs[lo/IDBlockLen : (hi+IDBlockLen-1)/IDBlockLen+1],
		skip: lo % IDBlockLen,
		n:    hi - lo,
		last: s.last,
	}
}

// IDCursor reads a column at positions that mostly move forward, decoding
// a block when a read first lands in it: what a merge walks a source with.
type IDCursor struct {
	ids  IDs
	have int // the decoded block's index + 1, 0 for none
	buf  [IDBlockLen]bitvec.UserID
}

// Reset points the cursor at a column.
func (c *IDCursor) Reset(ids IDs) { c.ids, c.have = ids, 0 }

// At returns id i of the column.
func (c *IDCursor) At(i int) bitvec.UserID {
	i += c.ids.skip
	if k := i / IDBlockLen; k+1 != c.have {
		blk := c.ids.block(k)
		if blk[0] == rawIDWidth {
			return bitvec.UserID(binary.BigEndian.Uint64(blk[1+8*(i%IDBlockLen):]))
		}
		c.ids.decode(k, &c.buf)
		c.have = k + 1
	}
	return c.buf[i%IDBlockLen]
}

// upTo returns the first position at or after i whose id exceeds id, and
// whether the id before it — if it is at or after i — is id itself.  The
// block i lies in is scanned first — where it lies, if its ids are raw — for
// a merge asks for ids a few records apart far more often than for one a
// column away; past its end, the blocks wholly at or below id are stepped
// over by their successors' first ids (seek), and one more is scanned.
func (c *IDCursor) upTo(i int, id bitvec.UserID) (to int, hit bool) {
	s := c.ids
	at, total, blocks := i+s.skip, s.n+s.skip, len(s.offs)-1
	for at < total {
		k := at / IDBlockLen
		end := min((k+1)*IDBlockLen, total)
		if blk := s.block(k); blk[0] == rawIDWidth {
			for raw := blk[1+8*(at-k*IDBlockLen):]; at < end; at, raw = at+1, raw[8:] {
				other := binary.BigEndian.Uint64(raw)
				if other > uint64(id) {
					break
				}
				hit = other == uint64(id)
			}
		} else {
			for ; at < end; at++ {
				other := c.At(at - s.skip)
				if other > id {
					break
				}
				hit = other == id
			}
		}
		if at < end || k+1 == blocks || s.base(k+1) > id {
			break
		}
		at, hit = s.seek(k+1, k+1, id)*IDBlockLen, false
	}
	return at - s.skip, hit
}

// IDBuilder builds a column by appending ids in strictly ascending order.
// The zero IDBuilder is ready to use; Grow sizes it.
//
// The block being built stands at the end of b as a raw one, so that a
// stretch of a raw block lands in it as bytes wherever it falls; when the
// block is full it is coded where it stands.
type IDBuilder struct {
	b    []byte
	offs []int
	n    int           // ids in finished blocks
	np   int           // ids in the block being built, the last of offs
	last bitvec.UserID // the last id appended
}

// Grow makes room for n more ids coded in about size bytes.
func (b *IDBuilder) Grow(n, size int) {
	// Not slices.Grow: it rounds up to a size class, and room the estimate
	// did not ask for is room IDs copies the column to be rid of.
	b.b = append(make([]byte, 0, len(b.b)+size), b.b...)
	b.offs = append(make([]int, 0, len(b.offs)+(n+IDBlockLen-1)/IDBlockLen+2), b.offs...)
}

// Len returns how many ids were appended.
func (b *IDBuilder) Len() int { return b.n + b.np }

// Last returns the last id appended; there must be one.
func (b *IDBuilder) Last() bitvec.UserID { return b.last }

// follows panics unless id exceeds every id appended before: the callers
// sort first, so anything else is a bug in one of them.
func (b *IDBuilder) follows(id bitvec.UserID) {
	if b.Len() > 0 && id <= b.last {
		panic(fmt.Sprintf("sketch: id %d appended to a column that reaches %d", uint64(id), uint64(b.last)))
	}
}

// open starts a block, raw until it is closed, if none is being built.
// Only the column's last block may be short, so none follows one.
func (b *IDBuilder) open() {
	if b.np == 0 {
		if b.n%IDBlockLen != 0 {
			panic("sketch: id appended after a short block")
		}
		b.offs = append(b.offs, len(b.b))
		b.b = append(b.b, rawIDWidth)
	}
}

// Append appends one id, which must exceed every id appended before.
func (b *IDBuilder) Append(id bitvec.UserID) {
	b.follows(id)
	b.open()
	b.b, b.last = binary.BigEndian.AppendUint64(b.b, uint64(id)), id
	if b.np++; b.np == IDBlockLen {
		b.flush()
	}
}

// flush closes the block being built: it stays as it stands if it has to
// be raw, and is coded over itself otherwise.
func (b *IDBuilder) flush() {
	if b.np == 0 {
		return
	}
	start := b.offs[len(b.offs)-1]
	// Hashed ids are settled by their first pair, read where it stands.
	if raw := b.b[start+1:]; b.np < 2 || coded(bitvec.UserID(binary.BigEndian.Uint64(raw)), bitvec.UserID(binary.BigEndian.Uint64(raw[8:]))) {
		var ids [IDBlockLen]bitvec.UserID
		decodeIDBlock(b.b[start:], b.np, &ids)
		if idBlockWidth(ids[:b.np]) != rawIDWidth {
			b.b = appendIDBlock(b.b[:start], ids[:b.np])
		}
	}
	b.n, b.np = b.n+b.np, 0
}

// AppendIDs appends ids [lo, hi) of the column c reads, which must exceed
// every id appended before.  Where the builder stands on a block boundary
// and the stretch covers whole blocks, their bytes move as they are, and a
// stretch of a raw block moves as bytes wherever it stands; the rest is
// read through the cursor and coded anew.
func (b *IDBuilder) AppendIDs(c *IDCursor, lo, hi int) {
	s := c.ids
	for lo < hi {
		at := lo + s.skip
		k, j := at/IDBlockLen, at%IDBlockLen
		if b.np == 0 && b.n%IDBlockLen == 0 && j == 0 && hi-lo >= IDBlockLen {
			blocks := (hi - lo) / IDBlockLen
			b.follows(s.base(k))
			shift := len(b.b) - s.offs[k]
			for _, off := range s.offs[k : k+blocks] {
				b.offs = append(b.offs, off+shift)
			}
			b.b = append(b.b, s.b[s.offs[k]:s.offs[k+blocks]]...)
			b.n, lo = b.n+blocks*IDBlockLen, lo+blocks*IDBlockLen
			b.last = c.At(lo - 1)
		} else if blk := s.block(k); blk[0] == rawIDWidth {
			m := min(hi-lo, IDBlockLen-j, IDBlockLen-b.np)
			raw := blk[1+8*j : 1+8*(j+m)]
			b.follows(bitvec.UserID(binary.BigEndian.Uint64(raw)))
			b.open()
			b.b, b.last = append(b.b, raw...), bitvec.UserID(binary.BigEndian.Uint64(raw[len(raw)-8:]))
			if b.np, lo = b.np+m, lo+m; b.np == IDBlockLen {
				b.flush()
			}
		} else {
			b.Append(c.At(lo))
			lo++
		}
	}
}

// AppendBlock appends the block of m ids at the front of src — input, as
// a store reads it from a file — and returns its size, or an error, with nothing appended, unless src holds there a well-formed block
// of m ascending ids that all exceed what was appended before.  On a block
// boundary the checked bytes are copied as they are, a short block's too:
// a checked block is coded as the builder would code it.  A short block
// ends the column: nothing may be appended after it.
func (b *IDBuilder) AppendBlock(src []byte, m int) (size int, err error) {
	var buf [IDBlockLen]bitvec.UserID
	size, err = checkIDBlock(src, m, &buf)
	if err != nil {
		return 0, err
	}
	switch {
	case (src[0] == rawIDWidth && !Ascends(buf[:m])) || (b.Len() > 0 && buf[0] <= b.last):
		return 0, errors.New("ids out of order")
	case b.np == 0 && b.n%IDBlockLen != 0:
		return 0, errors.New("ids after a short block")
	}
	if b.np > 0 {
		for _, id := range buf[:m] {
			b.Append(id)
		}
		return size, nil
	}
	b.offs = append(b.offs, len(b.b))
	b.b = append(b.b, src[:size]...)
	b.n, b.last = b.n+m, buf[m-1]
	return size, nil
}

// AppendAscending appends ids decoded from input, or appends nothing and
// returns an error unless they strictly ascend and exceed what was
// appended before.
func (b *IDBuilder) AppendAscending(ids []bitvec.UserID) error {
	if !Ascends(ids) || (len(ids) > 0 && b.Len() > 0 && ids[0] <= b.last) {
		return errors.New("ids out of order")
	}
	for _, id := range ids {
		b.Append(id)
	}
	return nil
}

// IDs returns the column built, sized to what it holds.  The builder must
// not be used afterwards.
func (b *IDBuilder) IDs() IDs {
	b.flush()
	if b.n == 0 {
		return IDs{}
	}
	b.offs = append(b.offs, len(b.b))
	// A merge reserves for the ids it is given and may drop repeats; what
	// is handed out is held for as long as the column, so it keeps no slack
	// worth a copy.
	if cap(b.b)-len(b.b) > len(b.b)/64 {
		b.b = append(make([]byte, 0, len(b.b)), b.b...)
	}
	if cap(b.offs)-len(b.offs) > len(b.offs)/64+2 {
		b.offs = append(make([]int, 0, len(b.offs)), b.offs...)
	}
	return IDs{b: b.b, offs: b.offs, n: b.n, last: b.last}
}

// MakeIDs returns the column of ids, which must strictly ascend, in room
// sized by a first pass over them.
func MakeIDs(ids []bitvec.UserID) IDs {
	if len(ids) == 0 {
		return IDs{}
	}
	if !Ascends(ids) {
		panic("sketch: MakeIDs of ids that do not ascend")
	}
	size := 0
	for at := 0; at < len(ids); at += IDBlockLen {
		block := ids[at:min(at+IDBlockLen, len(ids))]
		size += idBlockSize(len(block), idBlockWidth(block))
	}
	s := IDs{b: make([]byte, 0, size), offs: make([]int, 0, (len(ids)+IDBlockLen-1)/IDBlockLen+1), n: len(ids), last: ids[len(ids)-1]}
	for at := 0; at < len(ids); at += IDBlockLen {
		s.offs = append(s.offs, len(s.b))
		s.b = appendIDBlock(s.b, ids[at:min(at+IDBlockLen, len(ids))])
	}
	s.offs = append(s.offs, len(s.b))
	return s
}
