package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"sketchprivacy/internal/bitvec"
)

// ProtocolVersion is the wire protocol generation.  A peer speaking a
// different version fails the hello handshake loudly instead of producing a
// decode panic or a silently wrong estimate.  Bump it whenever a frame
// encoding changes incompatibly or an opcode is retired; a retired number
// is never assigned again.
//
// The contract: every frame carries a CRC32-C of its payload; planQuery is
// the one way to ask, a node and a router answer it with raw counters, and
// the asker debiases them; an ownership filter (ring epoch, live and failed
// members, deadline budget, tenant domain) rides only router→node plans;
// a batch of records, from a client or a router, is one publish batch.
//
// v8 retired opcodes 16 and 17, the rebalance transfer push and its ack: a
// batch of records between processes is one TypePublishBatch frame, which
// now carries a ring epoch (v7 had retired 2 and 3, v6 12 and 13).
const ProtocolVersion byte = 8

// Connection control frames every client uses.  (Queries, from an analyst
// or a router, are the plan opcode pair, see plan.go.)
const (
	// TypeHello opens a connection: the payload is the sender's protocol
	// version byte.  The receiver answers TypeHelloAck with its own version
	// or TypeError on a mismatch.
	TypeHello byte = 8
	// TypeHelloAck acknowledges a hello; the payload is the receiver's
	// protocol version byte.
	TypeHelloAck byte = 9
	// TypePing requests a liveness report; the payload is empty.
	TypePing byte = 10
	// TypePong answers a ping with a short human-readable status text
	// (nodes report "ok version=V sketches=N"; a router reports its ring,
	// per-node liveness and ownership spans).
	TypePong byte = 11
)

// maxFilterNodes is a decode guard: a hostile member count must not drive
// a giant allocation before the payload length check catches it.
const maxFilterNodes = 1 << 12

// EncodeHello returns the bare hello payload for this binary's version.
func EncodeHello() []byte { return []byte{ProtocolVersion} }

// EncodeHelloEpoch returns a hello payload carrying a ring epoch alongside
// the version byte.  A router announces its current epoch this way on every
// fresh connection, so a node learns the cluster generation at handshake
// time rather than only from the first filtered query.
func EncodeHelloEpoch(epoch uint64) []byte {
	out := make([]byte, 9)
	out[0] = ProtocolVersion
	binary.BigEndian.PutUint64(out[1:], epoch)
	return out
}

// DecodeHello parses a hello (or hello-ack) payload into the peer's
// version.  Both the bare one-byte form and the nine-byte epoch-carrying
// form are accepted.
func DecodeHello(b []byte) (byte, error) {
	v, _, _, err := ParseHello(b)
	return v, err
}

// ParseHello parses a hello payload into the peer's version and, when the
// nine-byte form was sent, its ring epoch.
func ParseHello(b []byte) (version byte, epoch uint64, hasEpoch bool, err error) {
	switch len(b) {
	case 1:
		return b[0], 0, false, nil
	case 9:
		return b[0], binary.BigEndian.Uint64(b[1:]), true, nil
	default:
		return 0, 0, false, fmt.Errorf("%w: hello payload must be the version byte or version byte + 8-byte epoch, got %d bytes", ErrCorrupt, len(b))
	}
}

// EncodePingEpoch returns a ping payload carrying the sender's ring epoch.
// A bare (empty) ping remains valid: epoch exchange is an extension, not a
// requirement, so pre-cluster tools keep working.
func EncodePingEpoch(epoch uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, epoch)
}

// ParsePing parses a ping payload: empty pings carry no epoch.
func ParsePing(b []byte) (epoch uint64, hasEpoch bool, err error) {
	switch len(b) {
	case 0:
		return 0, false, nil
	case 8:
		return binary.BigEndian.Uint64(b), true, nil
	default:
		return 0, false, fmt.Errorf("%w: ping payload must be empty or an 8-byte epoch, got %d bytes", ErrCorrupt, len(b))
	}
}

// StaleEpochMarker is the substring every stale-epoch refusal carries, so
// the router can recognise the refusal and retry the fan-out under a fresh
// ring snapshot instead of aborting the query.
const StaleEpochMarker = "stale ring epoch"

// StaleEpochError renders the refusal a node answers an outdated plan
// query with.
func StaleEpochError(queryEpoch, nodeEpoch uint64) error {
	return fmt.Errorf("wire: %s: query was built for ring epoch %d but this node has observed epoch %d — refusing to contribute counters computed under a superseded ring", StaleEpochMarker, queryEpoch, nodeEpoch)
}

// IsStaleEpoch reports whether an error message carries the stale-epoch
// refusal marker.
func IsStaleEpoch(msg string) bool { return strings.Contains(msg, StaleEpochMarker) }

// OverloadMarker is the substring a node's load-shedding refusal carries.
// Like the stale-epoch refusal it names a transient condition, not a
// property of the query, so a router treats it as retryable — the next
// fan-out attempt may land after the burst drained — instead of aborting
// the query the way it does for semantic errors.
const OverloadMarker = "node overloaded"

// OverloadError renders the refusal a node sheds load with when its
// in-flight frame guard is saturated.
func OverloadError(inflight int) error {
	return fmt.Errorf("wire: %s: %d frames already executing — shedding this request instead of queueing unboundedly", OverloadMarker, inflight)
}

// IsOverload reports whether an error message carries the load-shedding
// marker.
func IsOverload(msg string) bool { return strings.Contains(msg, OverloadMarker) }

// IsChecksum reports whether an error message carries the frame-checksum
// refusal: the peer received a corrupted frame.  Corruption is a
// transport-level fault, not a property of the query, so a router treats
// the refusal as retryable — the resend travels on a fresh connection.
func IsChecksum(msg string) bool { return strings.Contains(msg, ErrFrameChecksum.Error()) }

// DeadlineMarker is the substring a node's deadline-abandonment error
// carries: the query's end-to-end budget expired mid-execution, so the
// node stopped computing an answer the router has already given up on.
const DeadlineMarker = "deadline budget exhausted"

// DeadlineError renders the abandonment a node answers (best-effort — the
// router has usually hung up) when a query's budget expires mid-plan.
func DeadlineError(budget uint32) error {
	return fmt.Errorf("wire: %s: the query's %dms end-to-end budget expired mid-execution; abandoning the plan", DeadlineMarker, budget)
}

// CheckHello validates an incoming hello payload against this binary's
// version, returning the error the server should refuse the connection
// with.  Serving side: after sending the refusal, close the connection —
// an incompatible peer's subsequent frames would decode as garbage.
func CheckHello(payload []byte) error {
	v, err := DecodeHello(payload)
	if err != nil {
		return err
	}
	if v != ProtocolVersion {
		return fmt.Errorf("wire: protocol version mismatch: peer speaks v%d, this binary speaks v%d", v, ProtocolVersion)
	}
	return nil
}

// ClientHandshake performs the dialing side of the version handshake on a
// fresh connection: send the hello, require a matching hello-ack.  A peer
// speaking a different version — or one too old to know the hello opcode,
// which answers with its unknown-message error — fails loudly here
// instead of producing a decode error or a garbage estimate later.  The
// server daemon, the cluster router and the command-line client all share
// this one implementation.
func ClientHandshake(rw io.ReadWriter) error {
	return clientHandshake(rw, EncodeHello())
}

// ClientHandshakeEpoch is ClientHandshake with the sender's ring epoch in
// the hello payload; the cluster router uses it so every node it connects
// to learns the current ring generation before the first query arrives.
func ClientHandshakeEpoch(rw io.ReadWriter, epoch uint64) error {
	return clientHandshake(rw, EncodeHelloEpoch(epoch))
}

func clientHandshake(rw io.ReadWriter, hello []byte) error {
	if err := WriteFrame(rw, TypeHello, hello); err != nil {
		return fmt.Errorf("wire: sending hello: %w", err)
	}
	msgType, payload, err := ReadFrame(rw)
	if err != nil {
		return fmt.Errorf("wire: reading hello reply: %w", err)
	}
	switch msgType {
	case TypeHelloAck:
		v, err := DecodeHello(payload)
		if err != nil {
			return err
		}
		if v != ProtocolVersion {
			return fmt.Errorf("wire: protocol version mismatch: peer speaks v%d, this binary speaks v%d", v, ProtocolVersion)
		}
		return nil
	case TypeError:
		return fmt.Errorf("wire: handshake refused: %s", payload)
	default:
		return fmt.Errorf("wire: hello answered with message type %d — peer speaks an incompatible wire protocol version", msgType)
	}
}

// Filter restricts a plan query to the records its target node owns, so
// replicated records are counted exactly once across a fan-out.  The node
// rebuilds the cluster's consistent-hash ring from Nodes and VNodes and
// includes a record only when it is the first *live* node on the record's
// preference walk — with every acknowledged record on RF replicas and at
// most RF−1 nodes down, exactly one live node answers for each record.
type Filter struct {
	// Epoch is the ring generation this filter was built from.  A node
	// that has observed a newer epoch refuses the query (StaleEpochError)
	// instead of contributing counters computed under a superseded ring;
	// zero means "no epoch" and disables the check (single-node tools).
	Epoch uint64
	// Nodes is the full ring membership (placement depends on it, not on
	// the live set).
	Nodes []string
	// VNodes is the virtual-node count per member.
	VNodes uint32
	// Self names the node this query is addressed to.
	Self string
	// Live lists the members the router currently considers alive.
	Live []string
	// Budget is the query's remaining end-to-end deadline in milliseconds
	// at the moment the router encoded the request; zero means no budget.
	// A node bounds its plan execution by it, so work the router has
	// stopped waiting for is abandoned instead of burning a core for a
	// reply nobody reads.
	Budget uint32
	// DomainBits restricts the evaluation to one user-id domain: a record
	// is counted only when the top DomainBits bits of its user id equal
	// Domain.  Zero disables the restriction (the whole id space).  The
	// HTTP gateway derives each tenant's Domain from the master generator
	// key, so the restriction — composed with the ownership filter — is
	// what partitions a shared cluster into cryptographically disjoint
	// per-tenant PRF domains.
	DomainBits uint8
	// Domain is the required high-bit prefix value, right-aligned (the
	// record check is id >> (64-DomainBits) == Domain).
	Domain uint64
	// Failed names live-set members that stopped answering mid-fan-out.
	// When non-empty the filter selects the recovery slice: records whose
	// first live owner under Live is in Failed, re-partitioned among the
	// survivors by the next step of the preference walk (Self answers for
	// the ones it now leads).  The survivors' recovery slices together
	// cover exactly the failed nodes' original slices, so merging them
	// with the survivors' original answers stays bit-identical — the
	// filter-partition argument, applied twice.
	Failed []string
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte { return appendBytes(dst, []byte(s)) }

// readString consumes a length-prefixed string.
func readString(src []byte) (string, []byte, error) {
	b, rest, err := readBytes(src)
	return string(b), rest, err
}

// appendFilter appends a presence byte and, when present, the filter.
func appendFilter(dst []byte, f *Filter) []byte {
	if f == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, f.VNodes)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Nodes)))
	for _, n := range f.Nodes {
		dst = appendString(dst, n)
	}
	dst = appendString(dst, f.Self)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Live)))
	for _, n := range f.Live {
		dst = appendString(dst, n)
	}
	dst = binary.BigEndian.AppendUint32(dst, f.Budget)
	dst = append(dst, f.DomainBits)
	dst = binary.BigEndian.AppendUint64(dst, f.Domain)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Failed)))
	for _, n := range f.Failed {
		dst = appendString(dst, n)
	}
	return dst
}

// readFilter reverses appendFilter.
func readFilter(src []byte) (*Filter, []byte, error) {
	if len(src) < 1 {
		return nil, nil, ErrCorrupt
	}
	present := src[0]
	src = src[1:]
	switch present {
	case 0:
		return nil, src, nil
	case 1:
	default:
		return nil, nil, fmt.Errorf("%w: filter presence byte %d", ErrCorrupt, present)
	}
	if len(src) < 16 {
		return nil, nil, ErrCorrupt
	}
	f := &Filter{Epoch: binary.BigEndian.Uint64(src), VNodes: binary.BigEndian.Uint32(src[8:])}
	nNodes := binary.BigEndian.Uint32(src[12:])
	src = src[16:]
	if nNodes > maxFilterNodes {
		return nil, nil, fmt.Errorf("%w: filter claims %d ring members", ErrCorrupt, nNodes)
	}
	var err error
	var s string
	for i := uint32(0); i < nNodes; i++ {
		if s, src, err = readString(src); err != nil {
			return nil, nil, err
		}
		f.Nodes = append(f.Nodes, s)
	}
	if f.Self, src, err = readString(src); err != nil {
		return nil, nil, err
	}
	if len(src) < 4 {
		return nil, nil, ErrCorrupt
	}
	nLive := binary.BigEndian.Uint32(src)
	src = src[4:]
	if nLive > maxFilterNodes {
		return nil, nil, fmt.Errorf("%w: filter claims %d live members", ErrCorrupt, nLive)
	}
	for i := uint32(0); i < nLive; i++ {
		if s, src, err = readString(src); err != nil {
			return nil, nil, err
		}
		f.Live = append(f.Live, s)
	}
	if len(src) < 17 {
		return nil, nil, ErrCorrupt
	}
	f.Budget = binary.BigEndian.Uint32(src)
	f.DomainBits = src[4]
	f.Domain = binary.BigEndian.Uint64(src[5:])
	nFailed := binary.BigEndian.Uint32(src[13:])
	src = src[17:]
	if f.DomainBits > 63 {
		return nil, nil, fmt.Errorf("%w: filter domain of %d bits", ErrCorrupt, f.DomainBits)
	}
	if f.DomainBits == 0 && f.Domain != 0 {
		return nil, nil, fmt.Errorf("%w: filter domain value without domain bits", ErrCorrupt)
	}
	if f.DomainBits > 0 && f.Domain>>f.DomainBits != 0 {
		return nil, nil, fmt.Errorf("%w: filter domain value wider than %d bits", ErrCorrupt, f.DomainBits)
	}
	if nFailed > maxFilterNodes {
		return nil, nil, fmt.Errorf("%w: filter claims %d failed members", ErrCorrupt, nFailed)
	}
	for i := uint32(0); i < nFailed; i++ {
		if s, src, err = readString(src); err != nil {
			return nil, nil, err
		}
		f.Failed = append(f.Failed, s)
	}
	return f, src, nil
}

// readSubsetValue consumes one (subset tag, value bytes) pair.
func readSubsetValue(src []byte) (bitvec.Subset, bitvec.Vector, []byte, error) {
	tag, src, err := readBytes(src)
	if err != nil {
		return bitvec.Subset{}, bitvec.Vector{}, nil, err
	}
	subset, err := bitvec.ParseTag(tag)
	if err != nil {
		return bitvec.Subset{}, bitvec.Vector{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	vb, src, err := readBytes(src)
	if err != nil {
		return bitvec.Subset{}, bitvec.Vector{}, nil, err
	}
	value, err := bitvec.ParseBytes(vb)
	if err != nil {
		return bitvec.Subset{}, bitvec.Vector{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return subset, value, src, nil
}
