package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/wire"
)

// FNV-1a 64-bit constants — the same placement family the durable store
// shards with, lifted from shard-local to cluster-wide.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnv1a hashes a byte string with 64-bit FNV-1a.
func fnv1a(bs []byte) uint64 {
	h := fnvOffset64
	for _, c := range bs {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// mix64 finalizes a hash with a full 64-bit avalanche (the MurmurHash3
// fmix64 constants).  FNV-1a alone leaves the high bits of sequential
// inputs strongly correlated — a run of consecutive user ids differs only
// in its last byte, which moves the raw hash by at most 255·prime ≈ 2^48,
// a sliver of the 2^64 circle — so without this step a sequentially
// numbered workload lands on a single virtual-node arc.  The store's
// shardOf escapes the problem by reducing modulo N (the low bits avalanche
// fine); ring placement orders by the full hash, so it needs the finisher.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashUserID places a user on the ring: FNV-1a over the 8-byte big-endian
// id — the same placement family as the store's shardOf — finished with
// mix64.
func hashUserID(id bitvec.UserID) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return mix64(fnv1a(b[:]))
}

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the member it belongs to.
type ringPoint struct {
	hash uint64
	node int32
}

// Ring is an immutable consistent-hash ring over a set of member
// addresses.  Placement depends only on the member set and the vnode
// count, never on the order members were listed in, so every router and
// node configured with the same membership computes the same ring.
type Ring struct {
	nodes  []string // sorted, distinct
	vnodes int
	points []ringPoint // sorted by hash
}

// NewRing builds a ring with vnodes virtual nodes per member.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: vnodes must be positive, got %d", vnodes)
	}
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, errors.New("cluster: empty node address")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node address %q", n)
		}
	}
	r := &Ring{nodes: sorted, vnodes: vnodes, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	var scratch []byte
	for i, n := range sorted {
		for v := 0; v < vnodes; v++ {
			scratch = append(scratch[:0], n...)
			scratch = append(scratch, '#')
			scratch = binary.BigEndian.AppendUint64(scratch, uint64(v))
			r.points = append(r.points, ringPoint{hash: mix64(fnv1a(scratch)), node: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the ring membership in canonical (sorted) order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// arc returns the index of the ring point that ends the arc placement hash
// h lands in — the first point at or past h, or len(points) for the arc
// that wraps to point 0 (walkFrom reduces it).
func (r *Ring) arc(h uint64) int {
	return sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
}

// walk visits the distinct members of id's preference list in order,
// stopping when visit returns false or every member was seen.  The
// common ≤64-member case keeps the seen set in a register instead of
// allocating.
func (r *Ring) walk(id bitvec.UserID, visit func(node string) bool) {
	r.walkFrom(r.arc(hashUserID(id)), visit)
}

// walkFrom is walk starting at a known ring-point index: every id hashing
// into the arc ending at point start shares this preference list.
func (r *Ring) walkFrom(start int, visit func(node string) bool) {
	remaining := len(r.nodes)
	if remaining <= 64 {
		var seen uint64
		for i := 0; i < len(r.points) && remaining > 0; i++ {
			pt := r.points[(start+i)%len(r.points)]
			bit := uint64(1) << uint(pt.node)
			if seen&bit != 0 {
				continue
			}
			seen |= bit
			remaining--
			if !visit(r.nodes[pt.node]) {
				return
			}
		}
		return
	}
	seen := make([]bool, len(r.nodes))
	for i := 0; i < len(r.points) && remaining > 0; i++ {
		pt := r.points[(start+i)%len(r.points)]
		if seen[pt.node] {
			continue
		}
		seen[pt.node] = true
		remaining--
		if !visit(r.nodes[pt.node]) {
			return
		}
	}
}

// Owners returns the first rf distinct members of id's preference list:
// the owner followed by its RF−1 replicas.  With fewer than rf members the
// whole membership is returned.
func (r *Ring) Owners(id bitvec.UserID, rf int) []string {
	if rf < 1 {
		rf = 1
	}
	if rf > len(r.nodes) {
		rf = len(r.nodes)
	}
	out := make([]string, 0, rf)
	r.walk(id, func(n string) bool {
		out = append(out, n)
		return len(out) < rf
	})
	return out
}

// FirstLive returns the first member of id's preference list present in
// live — the node that answers for id's records in a scatter-gather
// fan-out.  It reports false when no live node exists.
func (r *Ring) FirstLive(id bitvec.UserID, live map[string]bool) (string, bool) {
	return r.firstLiveFrom(r.arc(hashUserID(id)), live)
}

// firstLiveFrom is FirstLive for every id whose placement hash lands in
// the arc ending at ring point start.
func (r *Ring) firstLiveFrom(start int, live map[string]bool) (string, bool) {
	var owner string
	found := false
	r.walkFrom(start, func(n string) bool {
		if live[n] {
			owner, found = n, true
			return false
		}
		return true
	})
	return owner, found
}

// Spans returns each member's share of the hash space — the fraction of
// user ids whose primary owner it is.  The shares sum to 1.
func (r *Ring) Spans() map[string]float64 {
	out := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return out
	}
	for i, pt := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		// Unsigned subtraction wraps correctly for the arc crossing zero;
		// with a single point the arc is the full circle.
		arc := pt.hash - prev
		if len(r.points) == 1 {
			out[r.nodes[pt.node]] = 1
			return out
		}
		out[r.nodes[pt.node]] += float64(arc) / math.Exp2(64)
	}
	return out
}

// Span is one arc of the hash circle: user ids whose placement hash lands
// in (Start, End] (wrapping past zero when End < Start).  CoverageError
// carries the arcs whose entire owner set is unreachable.
type Span struct {
	// Start and End delimit the arc on the 64-bit hash circle.
	Start, End uint64
	// Owners is the arc's first-RF owner set — the nodes that would have
	// to return for the arc's records to be readable again.
	Owners []string
}

// Fraction returns the share of the hash circle the arc covers.
func (s Span) Fraction() float64 {
	return float64(s.End-s.Start) / math.Exp2(64) // unsigned wrap handles Start > End
}

// String renders the arc for operators.
func (s Span) String() string {
	return fmt.Sprintf("(%#016x, %#016x] (%.2f%% of users, owners %v)", s.Start, s.End, 100*s.Fraction(), s.Owners)
}

// UnreachableSpans returns the arcs of the hash circle whose records may
// be unreadable: every member of the arc's first-rf owner set — the only
// nodes an acknowledged record is guaranteed to be on — is outside live.
// Adjacent unreachable arcs merge; the result is empty exactly when every
// record still has a live replica, which is the condition under which a
// fan-out's answer is exact.
func (r *Ring) UnreachableSpans(rf int, live map[string]bool) []Span {
	if len(r.points) == 0 {
		return nil
	}
	if rf > len(r.nodes) {
		rf = len(r.nodes)
	}
	var out []Span
	owners := make([]string, 0, rf)
	for i, pt := range r.points {
		owners = owners[:0]
		anyLive := false
		r.walkFrom(i, func(n string) bool {
			owners = append(owners, n)
			if live[n] {
				anyLive = true
				return false
			}
			return len(owners) < rf
		})
		if anyLive {
			continue
		}
		start := r.points[(i+len(r.points)-1)%len(r.points)].hash
		if k := len(out) - 1; k >= 0 && out[k].End == start {
			// Contiguous with the previous unreachable arc: extend it.
			out[k].End = pt.hash
			for _, o := range owners {
				if !slices.Contains(out[k].Owners, o) {
					out[k].Owners = append(out[k].Owners, o)
				}
			}
			continue
		}
		sp := Span{Start: start, End: pt.hash}
		sp.Owners = append(sp.Owners, owners...)
		out = append(out, sp)
	}
	// The first and last arcs may be contiguous across the index-0 seam.
	if k := len(out) - 1; k > 0 && out[k].End == out[0].Start {
		out[0].Start = out[k].Start
		for _, o := range out[k].Owners {
			if !slices.Contains(out[0].Owners, o) {
				out[0].Owners = append(out[0].Owners, o)
			}
		}
		out = out[:k]
	}
	return out
}

// CompileFilter turns a wire ownership filter into the record predicate a
// node evaluates: keep a record exactly when this node is the first live
// member of the record's preference walk.  A nil filter compiles to a nil
// predicate (keep everything).
//
// A filter carrying a failed-node set selects a recovery slice instead:
// keep a record exactly when its first live owner under Live — the node
// the original fan-out assigned it to — is in Failed, and this node leads
// the record's preference walk among the survivors (Live minus Failed).
// The survivors' recovery slices partition the failed nodes' original
// slices, so merging them with the survivors' original answers reproduces
// the full fan-out bit-identically — the filter-partition argument,
// applied once to Live and once to the survivor set.
//
// A filter carrying a tenant domain (DomainBits > 0) additionally requires
// the top DomainBits bits of the user id to equal Domain: the predicate is
// the conjunction of the ownership check and the domain check, so a
// domained fan-out counts exactly the querying tenant's slice of each
// node's records and nothing else.
//
// Every id hashing into one arc of the ring shares its preference walk, so
// the walks are done here, once per ring point, and the predicate is
// placement hash → arc lookup → slice read, with no map lookup or walk per
// record.  The compiled filter's Key is FilterKey(f).
func CompileFilter(f *wire.Filter) (*query.UserFilter, error) {
	if f == nil {
		return nil, nil
	}
	if f.DomainBits > 63 {
		return nil, fmt.Errorf("cluster: filter domain of %d bits", f.DomainBits)
	}
	ring, err := NewRing(f.Nodes, int(f.VNodes))
	if err != nil {
		return nil, fmt.Errorf("cluster: bad filter ring: %w", err)
	}
	members := make(map[string]bool, len(f.Nodes))
	for _, n := range f.Nodes {
		members[n] = true
	}
	if !members[f.Self] {
		return nil, fmt.Errorf("cluster: filter self %q is not a ring member", f.Self)
	}
	if len(f.Live) == 0 {
		return nil, errors.New("cluster: filter has no live nodes")
	}
	live := make(map[string]bool, len(f.Live))
	for _, n := range f.Live {
		if !members[n] {
			return nil, fmt.Errorf("cluster: live node %q is not a ring member", n)
		}
		live[n] = true
	}
	self := f.Self
	failed := make(map[string]bool, len(f.Failed))
	survivors := make(map[string]bool, len(f.Live))
	for n := range live {
		survivors[n] = true
	}
	for _, n := range f.Failed {
		if !live[n] {
			return nil, fmt.Errorf("cluster: failed node %q is not in the filter's live set", n)
		}
		failed[n] = true
		delete(survivors, n)
	}
	if failed[self] {
		return nil, fmt.Errorf("cluster: filter self %q is in its own failed set", self)
	}
	if len(survivors) == 0 {
		return nil, errors.New("cluster: recovery filter has no surviving nodes")
	}
	// ends[i] is ring point i's hash and answers[i] whether self answers
	// for the ids of the arc ending there; one more entry of each — a
	// hash nothing exceeds, and the first arc's answer again — stands for
	// the ids past the last point, whose walk wraps to the first.
	n := len(ring.points)
	ends := make([]uint64, n+1)
	answers := make([]bool, n+1)
	for i, pt := range ring.points {
		ends[i] = pt.hash
		owner, ok := ring.firstLiveFrom(i, live)
		if len(failed) == 0 {
			answers[i] = ok && owner == self
		} else if ok && failed[owner] {
			next, ok := ring.firstLiveFrom(i, survivors)
			answers[i] = ok && next == self
		}
	}
	ends[n], answers[n] = math.MaxUint64, answers[0]
	// Placement hashes are uniform, so a table over their top bits with at
	// least one bucket per point — first[b] is the first point at or past
	// b<<bucketShift — leaves the search a step or two instead of log n
	// unpredictable branches.
	bucketShift := 64 - uint(bits.Len(uint(n)))
	first := make([]int32, 1<<(64-bucketShift))
	for b, i := 0, 0; b < len(first); b++ {
		for ends[i]>>bucketShift < uint64(b) {
			i++
		}
		first[b] = int32(i)
	}
	domain := Domain{Bits: f.DomainBits, Tag: f.Domain}
	keep := func(id bitvec.UserID) bool {
		if !domain.Keep(id) {
			return false
		}
		h := hashUserID(id)
		i := first[h>>bucketShift]
		for ends[i] < h {
			i++
		}
		return answers[i]
	}
	return &query.UserFilter{Keep: keep, Key: FilterKey(f)}, nil
}

// FilterKey returns the identity of the predicate CompileFilter builds
// from f: a SHA-256 digest of exactly the fields that predicate reads —
// ring membership, vnode count, the addressed node, the live and failed
// sets (as sets: sorted, duplicates dropped) and the tenant domain — and
// of nothing it does not (Epoch, Budget).  Equal keys therefore mean equal
// predicates by construction, which is what lets a node cache a compiled
// filter and its keep masks under the key with no invalidation protocol:
// a join, drain, death, recovery slice or other tenant is another key.
// Nodes is hashed in the order given although placement sorts it: a key
// finer than the predicate costs a cache miss, a coarser one would serve
// one node's mask to another and double-count a replica.
func FilterKey(f *wire.Filter) string {
	set := func(in []string) []string {
		out := slices.Clone(in)
		slices.Sort(out)
		return slices.Compact(out)
	}
	buf := binary.BigEndian.AppendUint32(nil, f.VNodes)
	buf = append(buf, f.DomainBits)
	if f.DomainBits > 0 { // the predicate ignores Domain without bits
		buf = binary.BigEndian.AppendUint64(buf, f.Domain)
	}
	for _, list := range [][]string{f.Nodes, {f.Self}, set(f.Live), set(f.Failed)} {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(list)))
		for _, n := range list {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(n)))
			buf = append(buf, n...)
		}
	}
	sum := sha256.Sum256(buf)
	return string(sum[:])
}
