package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/query"
	"sketchprivacy/internal/sketch"
)

// FuzzDecode drives every wire decoder with arbitrary bytes.  The
// contract under test: a decoder returns an error on malformed input —
// it never panics — and an input it accepts is canonical, meaning
// re-encoding the decoded value reproduces the input bit for bit.  The
// canonical-form property is what lets the store deduplicate records and
// the PRF treat encodings as identity: two equal objects must never have
// two encodings.
func FuzzDecode(f *testing.F) {
	// Valid frames seed the corpus so mutation starts near the format.
	pub := sketch.Published{
		ID:     77,
		Subset: bitvec.MustSubset(0, 2, 5),
		S:      sketch.Sketch{Key: 123, Length: 10},
	}
	f.Add(EncodePublished(pub))
	// An analyst's one-pair plan, unfiltered, and the counters a router
	// answers it with, under no epoch.
	f.Add(EncodePlanQuery(nil, planSpec{fractions: []query.FractionEval{pair("10", 1, 3)}}.build(f)))
	f.Add(EncodePlanResult(0, &query.Results{Fractions: []query.Partial{{Hits: 250, Records: 1000}}}))
	f.Add(EncodeStats(Stats{Params: "p=0.3", P: 0.3, SketchBits: 10, Sketches: 1}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	// Regression seeds: 64-bit length fields crafted so the size
	// arithmetic wraps (found by this fuzzer; fixed in bitvec.ParseTag
	// and bitvec.ParseBytes).
	tornTag := append(binary.BigEndian.AppendUint64(nil, 0x2000000000000001), make([]byte, 8)...)
	f.Add(append(append(make([]byte, 8), encodeLenPrefixed(tornTag)...), encodeLenPrefixed([]byte{10, 0, 1})...))
	wrapVec := binary.BigEndian.AppendUint64(nil, ^uint64(62))
	f.Add(append(encodeLenPrefixed(binary.BigEndian.AppendUint64(nil, 0)), encodeLenPrefixed(wrapVec)...))
	f.Add(EncodeHello())
	// Plan frames: a batched multi-entry query and its result, and the
	// total-only query a router counts records with.
	f.Add(EncodePlanQuery(
		&Filter{Epoch: 3, Nodes: []string{"a:1", "b:1"}, VNodes: 8, Self: "b:1", Live: []string{"a:1", "b:1"}},
		planSpec{
			fractions: []query.FractionEval{pair("1", 0), pair("10", 0, 1)},
			hists: []query.HistogramEval{
				{Subs: subs(pair("1", 2))},
				{Subs: subs(pair("1", 2), pair("0", 4)), Guard: 1, GuardValid: true},
			},
			counts: []bitvec.Subset{bitvec.MustSubset(0)},
			total:  true,
		}.build(f)))
	f.Add(EncodePlanQuery(
		&Filter{Epoch: 3, Nodes: []string{"a:1", "b:1"}, VNodes: 8, Self: "a:1", Live: []string{"a:1", "b:1"}, Budget: 5000},
		planSpec{total: true}.build(f)))
	// A recovery fan-out's filter: failed set, tenant domain and budget.
	f.Add(EncodePlanQuery(
		&Filter{Epoch: 3, Nodes: []string{"a:1", "b:1", "c:1"}, VNodes: 8, Self: "a:1", Live: []string{"a:1", "b:1", "c:1"},
			Budget: 4500, DomainBits: 12, Domain: 0xabc, Failed: []string{"c:1"}},
		planSpec{counts: []bitvec.Subset{bitvec.MustSubset(0, 2)}}.build(f)))
	// A frame no plan encodes to: it repeats a fraction entry.
	f.Add(rawPlan([]query.FractionEval{pair("1", 0), pair("1", 0)}, nil, nil))
	f.Add(EncodePlanResult(3, &query.Results{
		Fractions: []query.Partial{{Hits: 4, Records: 10}, {Hits: 1, Records: 10}},
		Hists:     []query.HistPartial{{Users: 10, Hist: []uint64{4, 5, 1}}},
		Counts:    []uint64{10},
		Total:     20,
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodePublished(data); err == nil {
			if got := EncodePublished(p); !bytes.Equal(got, data) {
				t.Fatalf("DecodePublished accepted non-canonical input:\n in %x\nout %x", data, got)
			}
		}
		// A plan frame decodes straight into the query.Plan a node executes:
		// one that decodes is the encoding of that plan, entry for entry.
		if filter, plan, err := DecodePlanQuery(data); err == nil {
			if got := EncodePlanQuery(filter, plan); !bytes.Equal(got, data) {
				t.Fatalf("DecodePlanQuery accepted non-canonical input:\n in %x\nout %x", data, got)
			}
		}
		if epoch, r, err := DecodePlanResult(data); err == nil {
			if got := EncodePlanResult(epoch, r); !bytes.Equal(got, data) {
				t.Fatalf("DecodePlanResult accepted non-canonical input:\n in %x\nout %x", data, got)
			}
		}
		// Stats is JSON: no canonical-form guarantee, but still no panic.
		_, _ = DecodeStats(data)
		_, _ = DecodeHello(data)
		// And the frame reader itself must tolerate arbitrary streams.
		_, _, _ = ReadFrame(bytes.NewReader(data))
	})
}

// encodeLenPrefixed mirrors the internal appendBytes framing for seed
// construction.
func encodeLenPrefixed(b []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(b)))
	return append(out, b...)
}

// FuzzTransferDecode drives the decoders of the frames that move records
// between processes — snapshot reads/batches, the epoch-carrying publish
// batch, and the epoch-carrying hello and ping payloads — with arbitrary
// bytes.  Same contract as FuzzDecode: malformed input errors (never
// panics), and accepted input is canonical (re-encoding reproduces it bit
// for bit).  The CRC trailer makes the canonical property trivial for the
// framed batches, but the fuzzer still guards the count fields — no batch
// decodes to more than MaxTransferBatch records — and record sub-decoders.
func FuzzTransferDecode(f *testing.F) {
	records := []sketch.Published{
		{ID: 9, Subset: bitvec.MustSubset(0, 3), S: sketch.Sketch{Key: 4, Length: 10}},
		{ID: 10, Subset: bitvec.MustSubset(1), S: sketch.Sketch{Key: 0, Length: 12}},
	}
	f.Add(EncodeSnapshotRead(SnapshotRead{Cursor: 7, Max: 256}))
	f.Add(EncodeSnapshotBatch(SnapshotBatch{Next: 8, Done: true, Records: records}))
	f.Add(EncodePublishBatch(3, records))
	f.Add(EncodePublishBatch(0, records))
	f.Add(EncodeHelloEpoch(12))
	f.Add(EncodePingEpoch(12))
	// A batch whose count field promises far more records than the payload
	// holds, wrapped in a valid CRC so the count guard (not the checksum)
	// is what must catch it.
	hostile := binary.BigEndian.AppendUint64(nil, 0)
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF)
	f.Add(appendCRC(hostile))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	// The batch frames internal/server's TestRecordedConversation sends a
	// node: a client's batch, a router's push under epoch 5, the push that
	// conflicts with it, and a corrupt batch.
	b0, b1 := bitvec.MustSubset(0, 2), bitvec.MustSubset(1)
	rec := func(id uint64, b bitvec.Subset, key uint64) sketch.Published {
		return sketch.Published{ID: bitvec.UserID(id), Subset: b, S: sketch.Sketch{Key: key, Length: 10}}
	}
	f.Add(EncodePublishBatch(0, []sketch.Published{rec(2, b0, 9), rec(3, b0, 700), rec(2, b1, 1)}))
	f.Add(EncodePublishBatch(5, []sketch.Published{rec(3, b0, 700), rec(9, b1, 2)}))
	f.Add(EncodePublishBatch(5, []sketch.Published{rec(9, b1, 3)}))
	f.Add([]byte{0, 0, 0, 1, 9, 9, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeSnapshotRead(data); err == nil {
			if got := EncodeSnapshotRead(r); !bytes.Equal(got, data) {
				t.Fatalf("DecodeSnapshotRead accepted non-canonical input:\n in %x\nout %x", data, got)
			}
		}
		if sb, err := DecodeSnapshotBatch(data); err == nil {
			if got := EncodeSnapshotBatch(sb); !bytes.Equal(got, data) {
				t.Fatalf("DecodeSnapshotBatch accepted non-canonical input:\n in %x\nout %x", data, got)
			}
		}
		if epoch, ps, err := DecodePublishBatch(data); err == nil {
			if len(ps) > MaxTransferBatch {
				t.Fatalf("DecodePublishBatch accepted %d records, past %d", len(ps), MaxTransferBatch)
			}
			if got := EncodePublishBatch(epoch, ps); !bytes.Equal(got, data) {
				t.Fatalf("DecodePublishBatch accepted non-canonical input:\n in %x\nout %x", data, got)
			}
		}
		// The extended hello/ping payload parsers must never panic; their
		// encodings are canonical per form (bare vs epoch-carrying).
		if v, epoch, has, err := ParseHello(data); err == nil && has {
			if got := EncodeHelloEpoch(epoch); v == ProtocolVersion && !bytes.Equal(got, data) {
				t.Fatalf("ParseHello accepted non-canonical epoch hello: in %x out %x", data, got)
			}
		}
		if epoch, has, err := ParsePing(data); err == nil && has {
			if got := EncodePingEpoch(epoch); !bytes.Equal(got, data) {
				t.Fatalf("ParsePing accepted non-canonical epoch ping: in %x out %x", data, got)
			}
		}
	})
}
