package wire

import (
	"encoding/binary"

	"sketchprivacy/internal/sketch"
)

// TypePublishBatch carries a batch of published sketches in one frame
// (payload: an 8-byte ring epoch, then count-prefixed records, CRC-framed
// like the snapshot batch).  It is the one frame that moves a batch of
// records between processes: a client's batch carries epoch 0, and a
// router's rebalance push or hint replay carries its ring epoch, which the
// node observes as it does a ping's.  The node lands the whole batch
// through the engine's batched ingest, so the records reach the durable
// store as one commit-window entry per touched shard instead of one fsync
// each, and answers a single empty TypeAck once every record is durable —
// or a TypeError naming the earliest failure, in which case the sender
// must assume nothing about which records landed and send the batch again
// (ingestion is idempotent, so replaying already-applied records is
// harmless).
const TypePublishBatch byte = 23

// EncodePublishBatch serializes a batch under a ring epoch (0 from a
// client) with a trailing CRC32 over the body.  Callers cut batches with
// FrameBatch so the frame stays within MaxFrameSize and MaxTransferBatch.
func EncodePublishBatch(epoch uint64, ps []sketch.Published) []byte {
	out := binary.BigEndian.AppendUint64(make([]byte, 0, 64), epoch)
	return appendCRC(appendRecords(out, ps))
}

// DecodePublishBatch reverses EncodePublishBatch, verifying the CRC.
func DecodePublishBatch(b []byte) (epoch uint64, ps []sketch.Published, err error) {
	body, err := checkCRC(b)
	if err != nil {
		return 0, nil, err
	}
	if len(body) < 8 {
		return 0, nil, ErrCorrupt
	}
	if ps, err = readRecords(body[8:]); err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint64(body), ps, nil
}
