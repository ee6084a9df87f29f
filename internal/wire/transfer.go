package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sketchprivacy/internal/sketch"
)

// Rebalance message types: the snapshot stream a router reads a node's
// records with when the ring membership changes, plus the admin opcodes a
// sketchrouter accepts to drive a membership change.  The records that move
// travel as TypePublishBatch frames stamped with the ring epoch.
const (
	// TypeSnapshotRead asks a node for one batch of its stored records,
	// starting at an opaque cursor (payload: SnapshotRead).  The router
	// streams a node's contents through repeated reads during a rebalance.
	TypeSnapshotRead byte = 14
	// TypeSnapshotBatch carries a batch of records back plus the cursor
	// for the next read (payload: SnapshotBatch, CRC-framed).
	TypeSnapshotBatch byte = 15
	// TypeJoin asks a router to add a node to the live cluster (payload:
	// the node address as raw bytes); the router rebalances and answers
	// TypeAck only after the ring cutover.
	TypeJoin byte = 18
	// TypeDrain asks a router to move a node's ownership away and retire
	// it from the ring (payload: the node address); TypeAck follows the
	// cutover.
	TypeDrain byte = 19
	// TypeRebalanceStatus asks a router for its membership-change state;
	// the reply is a TypePong status text.
	TypeRebalanceStatus byte = 20
)

// MaxTransferBatch is the most records one batch frame carries, a publish
// batch or a snapshot batch: decoders refuse a larger count before
// allocating, nodes clamp incoming SnapshotRead limits to it (a hostile Max
// must not materialise a whole store in one reply), and FrameBatch never
// admits more.  Whether that many records fit a frame depends on how wide
// their subsets are — FrameBatch cuts by bytes as well.
const MaxTransferBatch = 8192

// batchFrameOverhead is what the largest batch frame spends outside its
// records: a snapshot batch's cursor, done byte and record count, and the
// trailing CRC.
const batchFrameOverhead = 8 + 1 + 4 + 4

// FrameBatch returns how many leading records of ps fit one batch frame
// (TypePublishBatch, TypeSnapshotBatch): at most MaxTransferBatch, and no
// more than the frame's bytes hold — every record costs its encoding and a
// 4-byte length, which for a k-position subset is 31 + 8k bytes, so 8192
// records outgrow MaxFrameSize from k = 13.  The count is at least 1 for a
// non-empty ps; a first record that no frame can hold is an error naming
// its user.
func FrameBatch(ps []sketch.Published) (int, error) {
	ps = ps[:min(len(ps), MaxTransferBatch)]
	size := batchFrameOverhead
	for i, p := range ps {
		if size += 4 + PublishedEncodedLen(p); size > MaxFrameSize {
			if i == 0 {
				return 0, fmt.Errorf("%w: the record of %v for subset %v is %d bytes", ErrFrameTooLarge, p.ID, p.Subset, PublishedEncodedLen(p))
			}
			return i, nil
		}
	}
	return len(ps), nil
}

// SnapshotRead is one streaming read request: an opaque cursor (zero
// starts the stream; later values come from the previous SnapshotBatch)
// and the maximum number of records wanted.
type SnapshotRead struct {
	Cursor uint64
	Max    uint32
}

// EncodeSnapshotRead serializes a snapshot read request.
func EncodeSnapshotRead(r SnapshotRead) []byte {
	out := make([]byte, 12)
	binary.BigEndian.PutUint64(out, r.Cursor)
	binary.BigEndian.PutUint32(out[8:], r.Max)
	return out
}

// DecodeSnapshotRead reverses EncodeSnapshotRead.
func DecodeSnapshotRead(b []byte) (SnapshotRead, error) {
	if len(b) != 12 {
		return SnapshotRead{}, ErrCorrupt
	}
	return SnapshotRead{
		Cursor: binary.BigEndian.Uint64(b),
		Max:    binary.BigEndian.Uint32(b[8:]),
	}, nil
}

// SnapshotBatch is one streamed batch of records: the cursor the next read
// should pass, whether the stream is exhausted, and the records.  The
// stream may repeat a record across batches (concurrent rolls and
// compactions shift where records live) but never skips one that existed
// when the stream started — duplicates are harmless because transfer
// ingestion is idempotent.
type SnapshotBatch struct {
	Next    uint64
	Done    bool
	Records []sketch.Published
}

// EncodeSnapshotBatch serializes a batch with a trailing CRC32 over the
// body, so a corrupted transfer is detected at the frame level before any
// record is applied.
func EncodeSnapshotBatch(sb SnapshotBatch) []byte {
	out := make([]byte, 0, 64)
	out = binary.BigEndian.AppendUint64(out, sb.Next)
	if sb.Done {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = appendRecords(out, sb.Records)
	return appendCRC(out)
}

// DecodeSnapshotBatch reverses EncodeSnapshotBatch, verifying the CRC.
func DecodeSnapshotBatch(b []byte) (SnapshotBatch, error) {
	body, err := checkCRC(b)
	if err != nil {
		return SnapshotBatch{}, err
	}
	if len(body) < 9 {
		return SnapshotBatch{}, ErrCorrupt
	}
	sb := SnapshotBatch{Next: binary.BigEndian.Uint64(body)}
	switch body[8] {
	case 0:
	case 1:
		sb.Done = true
	default:
		return SnapshotBatch{}, fmt.Errorf("%w: snapshot done byte %d", ErrCorrupt, body[8])
	}
	sb.Records, err = readRecords(body[9:])
	if err != nil {
		return SnapshotBatch{}, err
	}
	return sb, nil
}

// appendRecords appends a count-prefixed list of length-prefixed
// EncodePublished records.
func appendRecords(dst []byte, records []sketch.Published) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(records)))
	for _, p := range records {
		dst = binary.BigEndian.AppendUint32(dst, uint32(PublishedEncodedLen(p)))
		dst = AppendPublished(dst, p)
	}
	return dst
}

// readRecords reverses appendRecords, requiring the input to be fully
// consumed.
func readRecords(src []byte) ([]sketch.Published, error) {
	if len(src) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	if n > MaxTransferBatch {
		return nil, fmt.Errorf("%w: a batch frame claims %d records, past %d", ErrCorrupt, n, MaxTransferBatch)
	}
	if n == 0 {
		if len(src) != 0 {
			return nil, ErrCorrupt
		}
		return nil, nil
	}
	records := make([]sketch.Published, 0, min(int(n), len(src)/8+1))
	var dec PublishedDecoder // a batch has few subsets: skip most tag parses
	for i := uint32(0); i < n; i++ {
		rb, rest, err := readBytes(src)
		if err != nil {
			return nil, err
		}
		p, err := dec.Decode(rb)
		if err != nil {
			return nil, err
		}
		records = append(records, p)
		src = rest
	}
	if len(src) != 0 {
		return nil, ErrCorrupt
	}
	return records, nil
}

// appendCRC appends the IEEE CRC32 of everything before it.
func appendCRC(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// checkCRC verifies and strips a trailing CRC32.
func checkCRC(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: transfer frame CRC mismatch", ErrCorrupt)
	}
	return body, nil
}
