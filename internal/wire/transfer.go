package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sketchprivacy/internal/sketch"
)

// Rebalance message types: the data plane that moves sketches between
// nodes when the ring membership changes, plus the admin opcodes a
// sketchrouter accepts to drive a membership change.
const (
	// TypeSnapshotRead asks a node for one batch of its stored records,
	// starting at an opaque cursor (payload: SnapshotRead).  The router
	// streams a node's contents through repeated reads during a rebalance.
	TypeSnapshotRead byte = 14
	// TypeSnapshotBatch carries a batch of records back plus the cursor
	// for the next read (payload: SnapshotBatch, CRC-framed).
	TypeSnapshotBatch byte = 15
	// TypeTransferPush delivers a batch of records to their new owner
	// during a rebalance (payload: TransferPush, CRC-framed).  The
	// receiver ingests each record through the engine's idempotent
	// identical-republish path, so duplicated pushes converge.
	TypeTransferPush byte = 16
	// TypeTransferAck acknowledges a push with the number of records that
	// were newly applied (payload: TransferAck).
	TypeTransferAck byte = 17
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

// maxTransferRecords bounds a hostile batch count before allocation; real
// batches are further bounded by MaxFrameSize.
const maxTransferRecords = 1 << 16

// MaxTransferBatch is the most records a well-behaved peer puts in one
// publish batch, snapshot batch or transfer push.  It bounds a hostile
// peer, not a frame: nodes clamp incoming SnapshotRead limits to it (a
// hostile Max must not materialise a whole store in one reply), and the
// router clamps its configured transfer batch the same way.  Whether that
// many records fit a frame depends on how wide their subsets are — senders
// cut by bytes, with FrameBatch.
const MaxTransferBatch = 8192

// batchFrameOverhead is what the largest batch frame spends outside its
// records: a snapshot batch's cursor, done byte and record count, and the
// trailing CRC.
const batchFrameOverhead = 8 + 1 + 4 + 4

// FrameBatch returns how many leading records of ps fit one batch frame
// (TypePublishBatch, TypeSnapshotBatch, TypeTransferPush): every record
// costs its encoding and a 4-byte length, which for a k-position subset
// is 31 + 8k bytes, so 8192 records outgrow MaxFrameSize from k = 13.
// The count is at least 1 for a non-empty ps; a first record that no
// frame can hold is an error naming its user.
func FrameBatch(ps []sketch.Published) (int, error) {
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

// TransferPush is one batch of records delivered to their new owner, tagged
// with the ring epoch the rebalance runs under.
type TransferPush struct {
	Epoch   uint64
	Records []sketch.Published
}

// EncodeTransferPush serializes a push with a trailing CRC32 over the body.
func EncodeTransferPush(tp TransferPush) []byte {
	out := make([]byte, 0, 64)
	out = binary.BigEndian.AppendUint64(out, tp.Epoch)
	out = appendRecords(out, tp.Records)
	return appendCRC(out)
}

// DecodeTransferPush reverses EncodeTransferPush, verifying the CRC.
func DecodeTransferPush(b []byte) (TransferPush, error) {
	body, err := checkCRC(b)
	if err != nil {
		return TransferPush{}, err
	}
	if len(body) < 8 {
		return TransferPush{}, ErrCorrupt
	}
	tp := TransferPush{Epoch: binary.BigEndian.Uint64(body)}
	tp.Records, err = readRecords(body[8:])
	if err != nil {
		return TransferPush{}, err
	}
	return tp, nil
}

// TransferAck reports how many of a push's records were newly applied (the
// rest were already present — the idempotent path).
type TransferAck struct {
	Applied uint64
}

// EncodeTransferAck serializes a transfer acknowledgement.
func EncodeTransferAck(a TransferAck) []byte {
	return binary.BigEndian.AppendUint64(nil, a.Applied)
}

// DecodeTransferAck reverses EncodeTransferAck.
func DecodeTransferAck(b []byte) (TransferAck, error) {
	if len(b) != 8 {
		return TransferAck{}, ErrCorrupt
	}
	return TransferAck{Applied: binary.BigEndian.Uint64(b)}, nil
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
	if n > maxTransferRecords {
		return nil, fmt.Errorf("%w: transfer batch claims %d records", ErrCorrupt, n)
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
