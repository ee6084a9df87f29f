package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

func transferRecords() []sketch.Published {
	return []sketch.Published{
		{ID: 1, Subset: bitvec.MustSubset(0, 2, 5), S: sketch.Sketch{Key: 9, Length: 10}},
		{ID: 2, Subset: bitvec.MustSubset(1), S: sketch.Sketch{Key: 0, Length: 12}},
		{ID: 1 << 40, Subset: bitvec.MustSubset(7), S: sketch.Sketch{Key: 3, Length: 10}},
	}
}

func TestHelloEpochRoundTrip(t *testing.T) {
	v, epoch, has, err := ParseHello(EncodeHelloEpoch(42))
	if err != nil {
		t.Fatal(err)
	}
	if v != ProtocolVersion || epoch != 42 || !has {
		t.Fatalf("epoch hello parsed as (v=%d epoch=%d has=%v)", v, epoch, has)
	}
	// The bare form still parses, without an epoch.
	v, _, has, err = ParseHello(EncodeHello())
	if err != nil || v != ProtocolVersion || has {
		t.Fatalf("bare hello parsed as (v=%d has=%v err=%v)", v, has, err)
	}
	// CheckHello accepts both forms from a same-version peer.
	if err := CheckHello(EncodeHelloEpoch(7)); err != nil {
		t.Fatalf("CheckHello refused an epoch hello: %v", err)
	}
}

func TestPingEpochRoundTrip(t *testing.T) {
	epoch, has, err := ParsePing(EncodePingEpoch(17))
	if err != nil || !has || epoch != 17 {
		t.Fatalf("ParsePing(epoch ping) = (%d, %v, %v)", epoch, has, err)
	}
	if _, has, err := ParsePing(nil); err != nil || has {
		t.Fatalf("bare ping parsed as (has=%v err=%v)", has, err)
	}
	if _, _, err := ParsePing([]byte{1, 2, 3}); err == nil {
		t.Fatal("ParsePing accepted a 3-byte payload")
	}
}

func TestStaleEpochMarker(t *testing.T) {
	err := StaleEpochError(3, 5)
	if !IsStaleEpoch(err.Error()) {
		t.Fatalf("stale-epoch refusal not recognisable: %v", err)
	}
	if IsStaleEpoch("cluster: node down") {
		t.Fatal("IsStaleEpoch matched an unrelated error")
	}
}

func TestSnapshotReadRoundTrip(t *testing.T) {
	r := SnapshotRead{Cursor: 1<<40 | 7, Max: 512}
	got, err := DecodeSnapshotRead(EncodeSnapshotRead(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}
	if _, err := DecodeSnapshotRead([]byte{1, 2}); err == nil {
		t.Fatal("DecodeSnapshotRead accepted a short payload")
	}
}

func TestSnapshotBatchRoundTrip(t *testing.T) {
	for _, sb := range []SnapshotBatch{
		{Next: 99, Done: false, Records: transferRecords()},
		{Next: 0, Done: true},
	} {
		enc := EncodeSnapshotBatch(sb)
		got, err := DecodeSnapshotBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Next != sb.Next || got.Done != sb.Done || !reflect.DeepEqual(got.Records, sb.Records) {
			t.Fatalf("round trip: got %+v want %+v", got, sb)
		}
		// Canonical: re-encoding reproduces the bytes.
		if !bytes.Equal(EncodeSnapshotBatch(got), enc) {
			t.Fatal("snapshot batch encoding is not canonical")
		}
	}
}

func TestTransferCRCDetectsCorruption(t *testing.T) {
	enc := EncodeSnapshotBatch(SnapshotBatch{Next: 4, Records: transferRecords()})
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x01
	if _, err := DecodeSnapshotBatch(bad); err == nil {
		t.Fatal("snapshot batch corruption went undetected")
	}
}

// TestTransferDecodeRejectsHostileCounts: one record bound holds on both
// sides of a batch frame.  A count past MaxTransferBatch is refused as
// corrupt before allocating — whether it is 2^32-1 or one more than the
// bound over well-formed records that would fit the frame's bytes — and
// FrameBatch never admits more than the bound, however small the records.
func TestTransferDecodeRejectsHostileCounts(t *testing.T) {
	body := []byte{0, 0, 0, 0, 0, 0, 0, 9} // epoch
	body = append(body, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, _, err := DecodePublishBatch(appendCRC(body)); err == nil {
		t.Fatal("hostile record count accepted")
	}

	ps := make([]sketch.Published, MaxTransferBatch+1)
	for i := range ps {
		ps[i] = sketch.Published{ID: bitvec.UserID(i + 1), Subset: bitvec.MustSubset(3), S: sketch.Sketch{Key: uint64(i) % 512, Length: 9}}
	}
	over := EncodePublishBatch(7, ps)
	if len(over) > MaxFrameSize {
		t.Fatalf("%d one-position records encode to %d bytes, past the frame limit: the case tests bytes, not the count", len(ps), len(over))
	}
	if _, _, err := DecodePublishBatch(over); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a batch frame of %d well-formed records decoded (%v), want ErrCorrupt", len(ps), err)
	}
	if _, err := DecodeSnapshotBatch(EncodeSnapshotBatch(SnapshotBatch{Records: ps})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a snapshot batch of %d records decoded (%v), want ErrCorrupt", len(ps), err)
	}
	if _, got, err := DecodePublishBatch(EncodePublishBatch(7, ps[:MaxTransferBatch])); err != nil || len(got) != MaxTransferBatch {
		t.Fatalf("a batch of exactly %d records decoded to %d (%v)", MaxTransferBatch, len(got), err)
	}
	if fit, err := FrameBatch(ps); err != nil || fit != MaxTransferBatch {
		t.Fatalf("FrameBatch of %d one-position records = %d, %v; want %d", len(ps), fit, err, MaxTransferBatch)
	}
}

// TestFrameBatchCutsByBytes pins the helper every batch sender cuts with:
// the records it admits encode to a frame WriteFrame accepts under the
// largest batch header, one more would not, and the count where 8192
// records stop fitting is the subset width the arithmetic says (a record
// over k positions costs 31 + 8k bytes with its length prefix).
func TestFrameBatchCutsByBytes(t *testing.T) {
	records := func(n, positions int) []sketch.Published {
		b := bitvec.Range(0, positions)
		ps := make([]sketch.Published, n)
		for i := range ps {
			ps[i] = sketch.Published{ID: bitvec.UserID(i + 1), Subset: b, S: sketch.Sketch{Key: uint64(i) % 512, Length: 9}}
		}
		return ps
	}
	if got := len(EncodePublishBatch(0, records(1, 13))) - 16; got != 31+8*13 {
		t.Fatalf("a batched 13-position record costs %d bytes, want %d", got, 31+8*13)
	}
	for _, tc := range []struct {
		n, positions int
		whole        bool
	}{
		{MaxTransferBatch, 1, true}, {MaxTransferBatch, 12, true}, {MaxTransferBatch, 13, false},
		{2048, 60, true}, {2048, 61, false}, {0, 1, true},
	} {
		ps := records(tc.n, tc.positions)
		fit, err := FrameBatch(ps)
		if err != nil || (fit == len(ps)) != tc.whole {
			t.Fatalf("FrameBatch of %d records over %d positions = %d, %v; fits whole: want %v", tc.n, tc.positions, fit, err, tc.whole)
		}
		if len(ps) == 0 {
			continue
		}
		if fit < 1 {
			t.Fatalf("FrameBatch admitted %d of %d records", fit, len(ps))
		}
		if size := len(EncodeSnapshotBatch(SnapshotBatch{Records: ps[:fit]})); size > MaxFrameSize {
			t.Fatalf("the %d admitted records encode to %d bytes, past the frame limit", fit, size)
		}
		if fit < len(ps) {
			if size := len(EncodePublishBatch(0, ps[:fit+1])); size <= MaxFrameSize {
				t.Fatalf("FrameBatch stopped at %d records though %d encode to %d bytes", fit, fit+1, size)
			}
		}
	}
	// One record no frame holds: a typed error naming the user.
	huge := sketch.Published{ID: 77, Subset: bitvec.Range(0, MaxFrameSize/8), S: sketch.Sketch{Key: 1, Length: 9}}
	if fit, err := FrameBatch([]sketch.Published{huge, huge}); !errors.Is(err, ErrFrameTooLarge) || fit != 0 || !strings.Contains(err.Error(), "user-77") {
		t.Fatalf("FrameBatch of an oversized record = %d, %v", fit, err)
	}
}
