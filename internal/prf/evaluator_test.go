package prf

import (
	"bytes"
	"encoding/hex"
	"sync"
	"testing"
	"testing/quick"
)

// Golden vectors computed with the original mutex-guarded Func path (the
// pre-midstate implementation): the lock-free Evaluator pipeline must stay
// bit-identical to it forever, or every published sketch in the world
// becomes unreadable.
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

func TestEvaluatorGoldenVectors(t *testing.T) {
	f := NewFunc(testKey())
	e := f.NewEvaluator()
	for _, g := range goldenDigests {
		de := e.Digest(g.parts...)
		if got := hex.EncodeToString(de[:]); got != g.want {
			t.Errorf("Evaluator.Digest(%q) = %s, want %s", g.parts, got, g.want)
		}
		df := f.Digest(g.parts...)
		if got := hex.EncodeToString(df[:]); got != g.want {
			t.Errorf("Func.Digest(%q) = %s, want %s", g.parts, got, g.want)
		}
	}
	if got := f.Uint64([]byte("golden")); got != 0x4d080409fd145956 {
		t.Errorf("Func.Uint64(golden) = %#x, want 0x4d080409fd145956", got)
	}
}

func TestEvaluatorMatchesFuncAndHMAC(t *testing.T) {
	f := NewFunc(testKey())
	e := f.NewEvaluator()
	prop := func(a, b, c []byte) bool {
		parts := [][]byte{a, b, c}
		de := e.Digest(parts...)
		df := f.Digest(parts...)
		// Independent reference: HMAC over the explicit tuple encoding,
		// computed by the from-scratch non-midstate path.
		dh := HMAC(testKey(), encodeTuple(nil, parts...))
		return de == df && df == dh
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatorMsgPathMatchesVarargs(t *testing.T) {
	f := NewFunc(testKey())
	e := f.NewEvaluator()
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
	if e.DigestMsg(msg) != e.Digest(parts...) {
		t.Error("DigestMsg over helper-encoded tuple differs from Digest")
	}
	if e.Uint64Msg(msg) != f.Uint64(parts...) {
		t.Error("Uint64Msg over helper-encoded tuple differs from Func.Uint64")
	}
}

func TestEvaluatorExpandMatchesFunc(t *testing.T) {
	f := NewFunc(testKey())
	e := f.NewEvaluator()
	a := make([]byte, 150)
	b := make([]byte, 150)
	f.Expand(a, []byte("stream"))
	e.Expand(b, []byte("stream"))
	if !bytes.Equal(a, b) {
		t.Error("Evaluator.Expand differs from Func.Expand")
	}
}

// TestEvaluatorRebindSwitchesKeys: a handle resumes from its key's saved
// midstates, so one that kept anything of the old key across Rebind would
// answer — silently, and wrongly — under another tenant's key.  Every kind
// of handle that holds resumed state is an input: the scalar evaluator, and
// the batch evaluator at both lane policies (its scalar arm is the same
// engine).
func TestEvaluatorRebindSwitchesKeys(t *testing.T) {
	defer SetLanes(0)
	f1 := NewFunc(testKey())
	f2 := NewFunc(bytes.Repeat([]byte{0x43}, MinKeyBytes))
	msg := encodeTuple(nil, []byte("x"))
	batch := func(m *MultiEvaluator) [DigestSize]byte {
		// Two equal messages fill a lane group; a lone one would take the
		// scalar arm at any policy.
		var out [2][DigestSize]byte
		m.DigestBatch([][]byte{msg, msg}, out[:])
		if out[0] != out[1] {
			t.Fatalf("DigestBatch of one message twice: %x and %x", out[0], out[1])
		}
		return out[0]
	}
	e, m := f1.NewEvaluator(), f1.NewMultiEvaluator()
	handles := []struct {
		name   string
		lanes  int
		rebind func(*Func)
		digest func() [DigestSize]byte
	}{
		{"Evaluator", 0, e.Rebind, func() [DigestSize]byte { return e.DigestMsg(msg) }},
		{"MultiEvaluator/scalar", 1, m.Rebind, func() [DigestSize]byte { return batch(m) }},
		{"MultiEvaluator/8", 8, m.Rebind, func() [DigestSize]byte { return batch(m) }},
	}
	for _, h := range handles {
		t.Run(h.name, func(t *testing.T) {
			if err := SetLanes(h.lanes); err != nil {
				t.Fatal(err)
			}
			h.rebind(f1)
			d1 := h.digest()
			if d1 != f1.Digest([]byte("x")) {
				t.Fatal("handle disagrees with the Func it was made from")
			}
			h.rebind(f2)
			if h.digest() == d1 {
				t.Error("Rebind to a different key did not change output")
			}
			if h.digest() != f2.Digest([]byte("x")) {
				t.Error("rebound handle disagrees with its new Func")
			}
			h.rebind(f1)
			if h.digest() != d1 {
				t.Error("rebinding back did not restore output")
			}
		})
	}
}

// TestEvaluationAllocatesNothing keeps the scalar engine's promise inside
// tier-1: the toolchain's hash is reached through an interface, and Sum(b)
// through an interface is exactly where a toolchain or a refactor could
// make the digest buffer escape per call.  The kernel ratchet
// (cmd/sketchbench/kernels.txt) pins the same thing from the outside.
func TestEvaluationAllocatesNothing(t *testing.T) {
	defer SetLanes(0)
	b := NewBiased(testKey(), MustProb(0.3))
	msg := bytes.Repeat([]byte{0x11}, 150)
	e := b.Func().NewEvaluator()
	if n := testing.AllocsPerRun(100, func() { e.DigestMsg(msg) }); n != 0 {
		t.Errorf("Evaluator.DigestMsg allocates %v times a call", n)
	}
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = bytes.Repeat([]byte{byte(i)}, 150)
	}
	out := make([]uint64, len(msgs))
	for _, lanes := range []int{1, 8} {
		if err := SetLanes(lanes); err != nil {
			t.Fatal(err)
		}
		me := b.Func().NewMultiEvaluator()
		me.Uint64Batch(msgs, out) // warm-up: the index slice grows once
		if n := testing.AllocsPerRun(20, func() { me.Uint64Batch(msgs, out) }); n != 0 {
			t.Errorf("lanes %d: Uint64Batch allocates %v times a call", lanes, n)
		}
		if n := testing.AllocsPerRun(100, func() { me.Uint64Msg(msg) }); n != 0 {
			t.Errorf("lanes %d: Uint64Msg allocates %v times a call", lanes, n)
		}
	}
}

func TestManyEvaluatorsConcurrently(t *testing.T) {
	f := NewFunc(testKey())
	want := f.Digest([]byte("concurrent"))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := f.NewEvaluator()
			for i := 0; i < 500; i++ {
				if e.Digest([]byte("concurrent")) != want {
					errs <- errDisagree
					return
				}
				_ = e.Uint64([]byte{byte(g), byte(i)})
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
