package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPublishBatchRoundTrip: a batch round-trips with its epoch — 0 from a
// client, the ring epoch from a router's push — and re-encodes to the same
// bytes.
func TestPublishBatchRoundTrip(t *testing.T) {
	records := transferRecords()
	for _, epoch := range []uint64{0, 5} {
		enc := EncodePublishBatch(epoch, records)
		gotEpoch, got, err := DecodePublishBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		if gotEpoch != epoch || !reflect.DeepEqual(got, records) {
			t.Fatalf("round trip: got epoch %d %+v, want %d %+v", gotEpoch, got, epoch, records)
		}
		// Canonical: re-encoding reproduces the bytes.
		if !bytes.Equal(EncodePublishBatch(gotEpoch, got), enc) {
			t.Fatal("publish batch encoding is not canonical")
		}
	}
	// An empty batch round-trips to nil records.
	epoch, got, err := DecodePublishBatch(EncodePublishBatch(3, nil))
	if err != nil || epoch != 3 || got != nil {
		t.Fatalf("empty batch round trip: (%d, %v, %v)", epoch, got, err)
	}
}

func TestPublishBatchCRCDetectsCorruption(t *testing.T) {
	enc := EncodePublishBatch(0, transferRecords())
	for _, flip := range []int{0, 8, 12, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[flip] ^= 0x40
		if _, _, err := DecodePublishBatch(bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", flip)
		}
	}
	// Truncation is detected too, down to the empty payload, and a body
	// too short to hold the epoch is refused under a valid CRC.
	if _, _, err := DecodePublishBatch(enc[:len(enc)-5]); err == nil {
		t.Fatal("truncated batch went undetected")
	}
	if _, _, err := DecodePublishBatch(nil); err == nil {
		t.Fatal("empty payload went undetected")
	}
	if _, _, err := DecodePublishBatch(appendCRC(make([]byte, 7))); err == nil {
		t.Fatal("a body shorter than its epoch went undetected")
	}
}

func TestPublishBatchRejectsHostileCount(t *testing.T) {
	// A batch claiming 2^32-1 records must fail on the count guard, not
	// allocate first.
	body := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := DecodePublishBatch(appendCRC(body)); err == nil {
		t.Fatal("hostile record count accepted")
	}
}
