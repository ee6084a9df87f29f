package prf

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"
	"testing/quick"
)

// Golden vectors computed with the original mutex-guarded Func path (the
// pre-midstate implementation): both evaluation handles — Func and
// MultiEvaluator — must stay bit-identical to it forever, or every
// published sketch in the world becomes unreadable.
var goldenDigests = []struct {
	parts [][]byte
	want  string
}{
	{
		parts: [][]byte{[]byte("user-1"), []byte("subset"), {1, 0, 1}},
		want:  "ff8ec0e3eca449d736168f7c664454cfd4b5cb76abd5fdec815b10885e91c8e9",
	},
	{
		parts: nil,
		want:  "1368cdd195df4a3b6ac95b51ed37a44419ac82346d2318bfafc5e1fc26ff42e3",
	},
}

// digestOne evaluates one message through the batch handle: a batch of one
// takes the scalar arm at every lane policy.
func digestOne(m *MultiEvaluator, msg []byte) [DigestSize]byte {
	var out [1][DigestSize]byte
	m.DigestBatch([][]byte{msg}, out[:])
	return out[0]
}

// TestEvaluatorGoldenVectors holds every engine to the golden vectors: each
// scalar engine (the SHA-NI kernel where the CPU has it, the crypto/sha256
// fallback everywhere) behind Func and a lone message, and 8 lanes.
func TestEvaluatorGoldenVectors(t *testing.T) {
	eachScalarEngine(t, testGoldenVectors)
}

func testGoldenVectors(t *testing.T) {
	defer SetLanes(0)
	f := NewFunc(testKey())
	for _, g := range goldenDigests {
		df := f.Digest(g.parts...)
		if got := hex.EncodeToString(df[:]); got != g.want {
			t.Errorf("Func.Digest(%q) = %s, want %s", g.parts, got, g.want)
		}
		msg := encodeTuple(nil, g.parts...)
		for _, lanes := range []int{1, 8} {
			if err := SetLanes(lanes); err != nil {
				t.Fatal(err)
			}
			var out [2][DigestSize]byte
			f.NewMultiEvaluator().DigestBatch([][]byte{msg, msg}, out[:])
			for _, d := range out {
				if got := hex.EncodeToString(d[:]); got != g.want {
					t.Errorf("lanes %d: MultiEvaluator.DigestBatch(%q) = %s, want %s", lanes, g.parts, got, g.want)
				}
			}
		}
	}
	if got := f.Uint64([]byte("golden")); got != 0x4d080409fd145956 {
		t.Errorf("Func.Uint64(golden) = %#x, want 0x4d080409fd145956", got)
	}
	if got := f.NewMultiEvaluator().Uint64Msg(encodeTuple(nil, []byte("golden"))); got != 0x4d080409fd145956 {
		t.Errorf("MultiEvaluator.Uint64Msg(golden) = %#x, want 0x4d080409fd145956", got)
	}
}

func TestEvaluatorMatchesFuncAndHMAC(t *testing.T) {
	f := NewFunc(testKey())
	m := f.NewMultiEvaluator()
	prop := func(a, b, c []byte) bool {
		parts := [][]byte{a, b, c}
		msg := encodeTuple(nil, parts...)
		df := f.Digest(parts...)
		dm := digestOne(m, msg)
		// Independent reference: HMAC over the explicit tuple encoding,
		// computed by the from-scratch non-midstate path.
		dh := HMAC(testKey(), msg)
		return df == dm && df == dh && m.Uint64Msg(msg) == binary.BigEndian.Uint64(dh[:8])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatorMsgPathMatchesVarargs(t *testing.T) {
	f := NewFunc(testKey())
	m := f.NewMultiEvaluator()
	parts := [][]byte{[]byte("id"), []byte("tag"), {0xde, 0xad}, nil}
	// Build the message with the exported append helpers, the way batch
	// kernels do, and check it agrees with the varargs tuple path.
	msg := AppendTupleHeader(nil, len(parts))
	for _, p := range parts {
		msg = AppendPart(msg, p)
	}
	if !bytes.Equal(msg, encodeTuple(nil, parts...)) {
		t.Fatalf("append helpers produced %x, encodeTuple produced %x", msg, encodeTuple(nil, parts...))
	}
	if digestOne(m, msg) != f.Digest(parts...) {
		t.Error("DigestBatch over helper-encoded tuple differs from Func.Digest")
	}
	if m.Uint64Msg(msg) != f.Uint64(parts...) {
		t.Error("Uint64Msg over helper-encoded tuple differs from Func.Uint64")
	}
}

// TestEvaluatorExpandMatchesFunc: Func.Expand's stream is block i = H of
// the tuple's encoding followed by the 8-byte counter i.  The batch handle
// evaluates those messages, in one batch, and the reference once more.
func TestEvaluatorExpandMatchesFunc(t *testing.T) {
	f := NewFunc(testKey())
	got := make([]byte, 150)
	f.Expand(got, []byte("stream"))
	base := encodeTuple(nil, []byte("stream"))
	msgs := make([][]byte, (len(got)+DigestSize-1)/DigestSize)
	for i := range msgs {
		msgs[i] = binary.BigEndian.AppendUint64(append([]byte(nil), base...), uint64(i))
	}
	digests := make([][DigestSize]byte, len(msgs))
	f.NewMultiEvaluator().DigestBatch(msgs, digests)
	var want []byte
	for i, d := range digests {
		if ref := HMAC(testKey(), msgs[i]); d != ref {
			t.Fatalf("block %d: DigestBatch = %x, reference %x", i, d, ref)
		}
		want = append(want, d[:]...)
	}
	if !bytes.Equal(got, want[:len(got)]) {
		t.Errorf("Func.Expand = %x, want the counter-mode blocks %x", got, want[:len(got)])
	}
}

// TestEvaluatorRebindSwitchesKeys: a handle resumes from its key's saved
// midstates, so one that kept anything of the old key across Rebind would
// answer — silently, and wrongly — under another tenant's key.  Every arm
// of the batch handle that holds resumed state is an input: a lone message
// (the scalar engine at any policy), and a lane group at both lane
// policies (its scalar arm is the same engine).
func TestEvaluatorRebindSwitchesKeys(t *testing.T) {
	defer SetLanes(0)
	f1 := NewFunc(testKey())
	f2 := NewFunc(bytes.Repeat([]byte{0x43}, MinKeyBytes))
	msg := encodeTuple(nil, []byte("x"))
	m := f1.NewMultiEvaluator()
	batch := func() [DigestSize]byte {
		// Two equal messages fill a lane group; a lone one would take the
		// scalar arm at any policy.
		var out [2][DigestSize]byte
		m.DigestBatch([][]byte{msg, msg}, out[:])
		if out[0] != out[1] {
			t.Fatalf("DigestBatch of one message twice: %x and %x", out[0], out[1])
		}
		return out[0]
	}
	handles := []struct {
		name   string
		lanes  int
		digest func() [DigestSize]byte
	}{
		{"MultiEvaluator/lone", 0, func() [DigestSize]byte { return digestOne(m, msg) }},
		{"MultiEvaluator/scalar", 1, batch},
		{"MultiEvaluator/8", 8, batch},
	}
	for _, h := range handles {
		t.Run(h.name, func(t *testing.T) {
			if err := SetLanes(h.lanes); err != nil {
				t.Fatal(err)
			}
			m.Rebind(f1)
			d1 := h.digest()
			if d1 != f1.Digest([]byte("x")) {
				t.Fatal("handle disagrees with the Func it was made from")
			}
			m.Rebind(f2)
			if h.digest() == d1 {
				t.Error("Rebind to a different key did not change output")
			}
			if h.digest() != f2.Digest([]byte("x")) {
				t.Error("rebound handle disagrees with its new Func")
			}
			m.Rebind(f1)
			if h.digest() != d1 {
				t.Error("rebinding back did not restore output")
			}
		})
	}
}

// TestEvaluationAllocatesNothing keeps the scalar engine's promise inside
// tier-1, on each engine: the fallback reaches the toolchain's hash through
// an interface, and Sum(b) through an interface is exactly where a
// toolchain or a refactor could make the digest buffer escape per call;
// the SHA-NI kernel takes a pointer to a state on the stack, which only
// its noescape declaration keeps there.  The kernel ratchet
// (cmd/sketchbench/kernels.txt) pins the same thing from the outside.
func TestEvaluationAllocatesNothing(t *testing.T) {
	defer SetLanes(0)
	f := NewFunc(testKey())
	msg := bytes.Repeat([]byte{0x11}, 150)
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = bytes.Repeat([]byte{byte(i)}, 150)
	}
	out := make([]uint64, len(msgs))
	eachScalarEngine(t, func(t *testing.T) {
		for _, lanes := range []int{1, 8} {
			if err := SetLanes(lanes); err != nil {
				t.Fatal(err)
			}
			me := f.NewMultiEvaluator()
			me.Uint64Batch(msgs, out) // warm-up: the index slice grows once
			if n := testing.AllocsPerRun(20, func() { me.Uint64Batch(msgs, out) }); n != 0 {
				t.Errorf("lanes %d: Uint64Batch allocates %v times a call", lanes, n)
			}
			if n := testing.AllocsPerRun(100, func() { me.Uint64Msg(msg) }); n != 0 {
				t.Errorf("lanes %d: Uint64Msg allocates %v times a call", lanes, n)
			}
		}
	})
}

// TestManyEvaluatorsConcurrently: goroutines each holding their own batch
// handle, beside the shared Func, all over one immutable key schedule.
func TestManyEvaluatorsConcurrently(t *testing.T) {
	f := NewFunc(testKey())
	want := f.Digest([]byte("concurrent"))
	msg := encodeTuple(nil, []byte("concurrent"))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := f.NewMultiEvaluator()
			for i := 0; i < 500; i++ {
				if digestOne(m, msg) != want || f.Digest([]byte("concurrent")) != want {
					errs <- errDisagree
					return
				}
				_ = m.Uint64Msg([]byte{byte(g), byte(i)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

var errDisagree = errDisagreeType{}

type errDisagreeType struct{}

func (errDisagreeType) Error() string { return "concurrent evaluator returned a different value" }
