package server

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
	"sketchprivacy/internal/wire"
)

// TestRecordedConversation replays one fixed conversation against a node —
// every opcode it serves, the error paths, an unknown opcode and the
// retired ones — and compares each reply frame, type and payload bytes,
// with literals recorded from the commit before the connection loop was
// shared with the router, and re-recorded for wire v8: the version byte,
// the epoch every batch frame now carries, the retired transfer opcodes 16
// and 17, and the conflict text of a router's push, which is a batch's.  A
// node answers the same request bytes with the same reply bytes, error
// texts included; a refactor of the loop or of a dispatch arm that moves
// one byte fails here.  The stats reply is compared decoded.
func TestRecordedConversation(t *testing.T) {
	_, addr, _, _ := startTestServer(t, 0.3, 10)
	conn := dialRaw(t, addr)

	b0, b1 := bitvec.MustSubset(0, 2), bitvec.MustSubset(1)
	rec := func(id uint64, b bitvec.Subset, key uint64) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: key, Length: 10}}
	}
	// The plan requests are literals too, recorded from the commit before
	// the frame became the encoding of query.Plan itself: two fractions
	// ({0,2} = 10, {1} = 1), one histogram ({0,2} = 11, {1} = 0), the counts
	// of {0,2} and {5} and the total, under no filter; and the total alone
	// under a filter that carries nothing but epoch 2.
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	planQuery := unhex("0000000002" +
		"00000018000000000000000200000000000000000000000000000002" + "0000001000000000000000020100000000000000" +
		"0000001000000000000000010000000000000001" + "0000001000000000000000010100000000000000" +
		"00000001" + "00000002" +
		"00000018000000000000000200000000000000000000000000000002" + "0000001000000000000000020300000000000000" +
		"0000001000000000000000010000000000000001" + "0000001000000000000000010000000000000000" + "00" +
		"00000002" +
		"00000018000000000000000200000000000000000000000000000002" + "0000001000000000000000010000000000000005" +
		"01")
	stalePlanQuery := unhex("01000000000000000200000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001")
	// The encoder still writes those bytes for those plans.
	plan := query.NewPlan()
	for _, f := range []query.FractionEval{{Subset: b0, Value: bitvec.MustFromString("10")}, {Subset: b1, Value: bitvec.MustFromString("1")}} {
		if _, err := plan.AddFraction(f.Subset, f.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := plan.AddHistogram([]query.SubQuery{{Subset: b0, Value: bitvec.MustFromString("11")}, {Subset: b1, Value: bitvec.MustFromString("0")}}); err != nil {
		t.Fatal(err)
	}
	plan.AddSubsetRecords(b0)
	plan.AddSubsetRecords(bitvec.MustSubset(5))
	plan.AddTotalRecords()
	if got := wire.EncodePlanQuery(nil, plan); !bytes.Equal(got, planQuery) {
		t.Errorf("the plan encodes to %x, recorded %x", got, planQuery)
	}
	if got := wire.EncodePlanQuery(&wire.Filter{Epoch: 2}, totalPlan()); !bytes.Equal(got, stalePlanQuery) {
		t.Errorf("the stale total-only plan encodes to %x, recorded %x", got, stalePlanQuery)
	}
	// A router's push under ring epoch 5, recorded from the v7 transfer
	// push of the same records: a v8 batch frame is that byte layout.
	pushPayload := unhex("0000000000000005" + "00000002" +
		"0000002b000000000000000300000018000000000000000200000000000000000000000000000002000000030a02bc" +
		"000000230000000000000009000000100000000000000001000000000000000100000003" + "0a0002" + "21f723ac")
	if got := wire.EncodePublishBatch(5, []sketch.Published{rec(3, b0, 700), rec(9, b1, 2)}); !bytes.Equal(got, pushPayload) {
		t.Errorf("the epoch-5 batch encodes to %x, recorded %x", got, pushPayload)
	}
	steps := []struct {
		name      string
		msgType   byte
		payload   []byte
		replyType byte
		reply     string // hex, or the error text for a TypeError
	}{
		{"hello", wire.TypeHello, wire.EncodeHello(), wire.TypeHelloAck, "08"},
		{"hello with an epoch", wire.TypeHello, wire.EncodeHelloEpoch(3), wire.TypeHelloAck, "08"},
		{"ping", wire.TypePing, nil, wire.TypePong, hex.EncodeToString([]byte("ok version=8 sketches=0 epoch=3"))},
		{"ping with an epoch", wire.TypePing, wire.EncodePingEpoch(4), wire.TypePong, hex.EncodeToString([]byte("ok version=8 sketches=0 epoch=4"))},
		{"publish", wire.TypePublish, wire.EncodePublished(rec(1, b0, 5)), wire.TypeAck, ""},
		{"identical re-publish", wire.TypePublish, wire.EncodePublished(rec(1, b0, 5)), wire.TypeAck, ""},
		{"conflicting publish", wire.TypePublish, wire.EncodePublished(rec(1, b0, 6)), wire.TypeError,
			"sketch: user user-1 already published a sketch for subset {0,2}"},
		{"corrupt publish", wire.TypePublish, []byte{1, 2, 3}, wire.TypeError, "wire: corrupt payload"},
		{"publish batch", wire.TypePublishBatch, wire.EncodePublishBatch(0, []sketch.Published{rec(2, b0, 9), rec(3, b0, 700), rec(2, b1, 1)}), wire.TypeAck, ""},
		{"corrupt publish batch", wire.TypePublishBatch, []byte{0, 0, 0, 1, 9, 9, 9, 9}, wire.TypeError, "wire: corrupt payload: transfer frame CRC mismatch"},
		// Opcodes 2 and 3 carry the bytes a v6 analyst's query ({0,2} = 10)
		// and its answer were.
		{"a retired opcode: the one-conjunction query", 2, unhex("00000018000000000000000200000000000000000000000000000002" + "0000001000000000000000020100000000000000"), wire.TypeError,
			"server: unknown message type 2"},
		{"a retired opcode: its finished estimate", 3, unhex("3fb55555555555543fb55555555555540000000000000003"), wire.TypeError,
			"server: unknown message type 3"},
		{"plan query", wire.TypePlanQuery, planQuery, wire.TypePlanResult,
			"00000000000000000000000200000000000000010000000000000003000000000000000100000000000000010000000100000000000000010000000300000000000000010000000000000000000000000000000000000002000000000000000300000000000000000000000000000004"},
		{"plan query under a superseded epoch", wire.TypePlanQuery, stalePlanQuery, wire.TypeError,
			"wire: stale ring epoch: query was built for ring epoch 2 but this node has observed epoch 4 — refusing to contribute counters computed under a superseded ring"},
		{"corrupt plan query", wire.TypePlanQuery, []byte{7}, wire.TypeError,
			"wire: corrupt payload: filter presence byte 7"},
		{"snapshot read", wire.TypeSnapshotRead, wire.EncodeSnapshotRead(wire.SnapshotRead{Max: 3}), wire.TypeSnapshotBatch,
			"000000010000000200000000030000002300000000000000020000001000000000000000010000000000000001000000030a00010000002b000000000000000100000018000000000000000200000000000000000000000000000002000000030a00050000002b000000000000000200000018000000000000000200000000000000000000000000000002000000030a0009c8714efa"},
		{"snapshot read from the returned cursor", wire.TypeSnapshotRead, wire.EncodeSnapshotRead(wire.SnapshotRead{Cursor: 1<<32 | 2, Max: 3}), wire.TypeSnapshotBatch,
			"000000020000000001000000010000002b000000000000000300000018000000000000000200000000000000000000000000000002000000030a02bc3e52f24d"},
		{"corrupt snapshot read", wire.TypeSnapshotRead, []byte{0}, wire.TypeError,
			"wire: corrupt payload"},
		// A router's push is a batch under its ring epoch: acknowledged empty,
		// and the node observes epoch 5.  Its payload is the byte layout
		// opcode 16 carried, which a v8 node no longer knows — nor 17, the
		// ack that counted the one newly applied record.
		{"a router's batch under its epoch", wire.TypePublishBatch, pushPayload, wire.TypeAck, ""},
		{"a conflicting batch under the epoch", wire.TypePublishBatch, wire.EncodePublishBatch(5, []sketch.Published{rec(9, b1, 3)}), wire.TypeError,
			"sketch: user user-9 already published a sketch for subset {1}"},
		{"a retired opcode: the transfer push", 16, pushPayload, wire.TypeError, "server: unknown message type 16"},
		{"a retired opcode: its ack", 17, unhex("0000000000000001"), wire.TypeError, "server: unknown message type 17"},
		{"an unknown opcode", 99, []byte("x"), wire.TypeError, "server: unknown message type 99"},
		{"a retired opcode", 12, []byte{4, 0}, wire.TypeError, "server: unknown message type 12"},
		{"a router's admin opcode", wire.TypeJoin, []byte("127.0.0.1:1"), wire.TypeError, "server: unknown message type 18"},
		{"ping after it all", wire.TypePing, nil, wire.TypePong, hex.EncodeToString([]byte("ok version=8 sketches=5 epoch=5"))},
	}
	for _, s := range steps {
		replyType, reply := roundTripRaw(t, conn, s.msgType, s.payload)
		got := hex.EncodeToString(reply)
		if replyType == wire.TypeError {
			got = string(reply)
		}
		if replyType != s.replyType || got != s.reply {
			t.Errorf("%s: reply type %d %q, recorded type %d %q", s.name, replyType, got, s.replyType, s.reply)
		}
	}

	replyType, reply := roundTripRaw(t, conn, wire.TypeStats, nil)
	if replyType != wire.TypeStatsReply {
		t.Fatalf("stats answered with type %d: %s", replyType, reply)
	}
	got, err := wire.DecodeStats(reply)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.Stats{
		Params: "p=0.3 ℓ=10 bits (privacy ratio 29.64, failure prob 1.14e-42)", P: 0.3, SketchBits: 10, Sketches: 5,
		Subsets: []wire.SubsetCount{
			{Subset: "{1}", Positions: []int{1}, Count: 2},
			{Subset: "{0,2}", Positions: []int{0, 2}, Count: 3},
		},
		// The stats frame itself holds the one in-flight slot it reports.
		Robustness: &wire.Robustness{InFlight: 1, MaxInFlight: 256},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stats reply %+v robustness %+v, recorded %+v", got, got.Robustness, want)
	}
}
