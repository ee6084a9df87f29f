package wire

import "sketchprivacy/internal/sketch"

// TypePublishBatch carries a batch of published sketches in one frame
// (payload: count-prefixed records, CRC-framed like the transfer
// messages).  The server lands the whole batch through the engine's
// batched ingest, so the records reach the durable store as one
// commit-window entry per touched shard instead of one fsync each, and
// answers a single TypeAck once every record is durable — or a
// TypeError naming the earliest failure, in which case the sender must
// assume nothing about which records landed and re-publish the batch
// (ingestion is idempotent, so replaying already-applied records is
// harmless).
const TypePublishBatch byte = 23

// EncodePublishBatch serializes a publish batch with a trailing CRC32
// over the body.  Callers cut batches with FrameBatch so the frame stays
// within MaxFrameSize.
func EncodePublishBatch(ps []sketch.Published) []byte {
	return appendCRC(appendRecords(make([]byte, 0, 64), ps))
}

// DecodePublishBatch reverses EncodePublishBatch, verifying the CRC.
func DecodePublishBatch(b []byte) ([]sketch.Published, error) {
	body, err := checkCRC(b)
	if err != nil {
		return nil, err
	}
	return readRecords(body)
}
