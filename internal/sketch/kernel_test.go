package sketch

import (
	"bytes"
	"math/bits"
	"testing"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/prf"
	"sketchprivacy/internal/stats"
)

func kernelTestSource(p float64) *prf.Biased {
	return prf.NewBiased(bytes.Repeat([]byte{0x42}, prf.MinKeyBytes), prf.MustProb(p))
}

// kernelTestRecords builds a deterministic spread of records across ids
// and sketch keys, at a length that depends on the subset: a subset's
// sketches share one.
func kernelTestRecords(b bitvec.Subset, n int) []Published {
	out := make([]Published, n)
	length := 4 + 3*b.Len()%7
	for i := range out {
		out[i] = Published{
			ID:     bitvec.UserID(i * 37),
			Subset: b,
			S:      Sketch{Key: uint64(i*13) % (1 << uint(length)), Length: length},
		}
	}
	return out
}

// viewOf loads id-ascending records of one subset into a table and returns
// its view of them, record i of the view being records[i].
func viewOf(t *testing.T, records []Published) View {
	t.Helper()
	tab := NewTable()
	if err := tab.AddAll(records); err != nil {
		t.Fatal(err)
	}
	v, _ := tab.View(records[0].Subset)
	return v
}

// TestKernelMatchesFacade pins that the zero-allocation kernel path is
// bit-identical to the varargs BitSource path for the same records — the
// compatibility contract that keeps old sketches queryable.
func TestKernelMatchesFacade(t *testing.T) {
	h := kernelTestSource(0.3)
	b := bitvec.MustSubset(3, 1, 4, 15)
	v := bitvec.MustFromString("1010")
	records := kernelTestRecords(b, 200)

	k := NewKernel(h, b, v)
	for _, rec := range records {
		slow := h.Bit(rec.ID.Bytes(), b.Tag(), v.Bytes(), rec.S.Bytes())
		if got := k.Evaluate(rec.ID, rec.S); got != slow {
			t.Fatalf("kernel disagrees with BitSource path for %v/%v", rec.ID, rec.S)
		}
		if got := Evaluate(h, rec.ID, b, v, rec.S); got != slow {
			t.Fatalf("Evaluate facade disagrees with BitSource path for %v/%v", rec.ID, rec.S)
		}
	}
}

// wordBits stages every window of the view through win and returns the
// kernel's packed words as one outcome per record, failing on a bit set
// past a window's last record.
func wordBits(t *testing.T, k *Kernel, win *Window, view View) []bool {
	t.Helper()
	var out []bool
	for w := 0; w*IDBlockLen < view.Len(); w++ {
		win.Stage(view, w, ^uint64(0))
		word := k.Word(win)
		n := min(IDBlockLen, view.Len()-w*IDBlockLen)
		if word>>uint(n) != 0 {
			t.Fatalf("window %d of %d records: word %064b has bits past the last", w, n, word)
		}
		for i := 0; i < n; i++ {
			out = append(out, word>>uint(i)&1 == 1)
		}
	}
	return out
}

// TestKernelCountAndEvaluateAllAgree evaluates records one by one through
// the scalar facade and checks that the packed word form and the count
// built on it agree with it bit for bit — over views of 1, 63 and 64
// records, one whose last window is short and one cut from the middle of a
// column, all staged through the same window, so a word that read what an
// earlier Stage left behind would show.
func TestKernelCountAndEvaluateAllAgree(t *testing.T) {
	h := kernelTestSource(0.25)
	b := bitvec.Range(0, 6)
	v := bitvec.MustFromString("110010")
	full := viewOf(t, kernelTestRecords(b, 333))

	k := NewKernel(h, b, v)
	var win Window
	for _, view := range []View{full, full.Slice(0, 1), full.Slice(0, 64), full.Slice(0, 63), full.Slice(5, 200)} {
		want := 0
		for i, got := range wordBits(t, k, &win, view) {
			one := Evaluate(h, view.ID(i), b, v, view.Sketch(i))
			if got != one {
				t.Fatalf("%d records: Word bit %d = %v, Evaluate = %v", view.Len(), i, got, one)
			}
			if one {
				want++
			}
		}
		if got := CountMatches(h, view, b, v); got != want {
			t.Fatalf("%d records: CountMatches = %d, want %d", view.Len(), got, want)
		}
	}
}

// countingBits counts the evaluations of H.  It is not *prf.Biased, so a
// kernel asks it through the fallback arm, once per staged record.
type countingBits struct {
	prf.BitSource
	evals int
}

func (c *countingBits) Bit(parts ...[]byte) bool {
	c.evals++
	return c.BitSource.Bit(parts...)
}

// packKept returns the bits of word that keep selects, packed low in order:
// bit j of the result is word's bit at keep's j-th set bit.
func packKept(word, keep uint64) uint64 {
	var out uint64
	for j := 0; keep != 0; keep &= keep - 1 {
		out |= (word >> uint(bits.TrailingZeros64(keep)) & 1) << uint(j)
		j++
	}
	return out
}

// TestWindowStagesOnlyKept: a window staged under a keep word evaluates the
// records it keeps and no others, and the word it yields holds their
// outcomes in staging order — bit j the full window's bit at the j-th kept
// record, nothing above the kept count — on the keyed PRF at both lane
// policies and through the fallback arm, over a view whose last window is
// short, with keep bits set past its end, through ONE reused window.
func TestWindowStagesOnlyKept(t *testing.T) {
	defer prf.SetLanes(0)
	b := bitvec.Range(0, 6)
	v := bitvec.MustFromString("011010")
	view := viewOf(t, kernelTestRecords(b, 150)) // windows of 64, 64 and 22
	keeps := []uint64{0, 1, 1 << 63, 0x5555_5555_5555_5555, 0xF0F0_0000_FFFF_0001, ^uint64(1), ^uint64(0)}
	counting := &countingBits{BitSource: kernelTestSource(0.3)}
	for _, lanes := range []int{1, 8} {
		if err := prf.SetLanes(lanes); err != nil {
			t.Fatal(err)
		}
		for _, h := range []prf.BitSource{kernelTestSource(0.3), counting} {
			k := NewKernel(h, b, v)
			var win Window
			for w := 0; w*IDBlockLen < view.Len(); w++ {
				win.Stage(view, w, ^uint64(0))
				full := k.Word(&win)
				valid := ^uint64(0)
				if n := view.Len() - w*IDBlockLen; n < IDBlockLen {
					valid = 1<<uint(n) - 1
				}
				for _, keep := range keeps {
					before := counting.evals
					win.Stage(view, w, keep)
					if got, want := k.Word(&win), packKept(full, keep&valid); got != want {
						t.Fatalf("lanes %d, %T, window %d, keep %016x: word %016x, want %016x", lanes, h, w, keep, got, want)
					}
					if h == counting && counting.evals-before != bits.OnesCount64(keep&valid) {
						t.Fatalf("window %d, keep %016x: %d evaluations, want %d", w, keep, counting.evals-before, bits.OnesCount64(keep&valid))
					}
				}
			}
		}
	}
}

// TestKernelMatchesBiased holds both kernel entry points to the varargs
// definition of H, record by record, at both lane policies — the kernel
// binds the PRF handle and thresholds its outputs itself — and the staged
// word path to allocating nothing once its buffers have grown.
func TestKernelMatchesBiased(t *testing.T) {
	defer prf.SetLanes(0)
	h := kernelTestSource(0.3)
	b := bitvec.MustSubset(3, 1, 4, 15)
	v := bitvec.MustFromString("1010")
	view := viewOf(t, kernelTestRecords(b, 200))
	for _, lanes := range []int{1, 8} {
		if err := prf.SetLanes(lanes); err != nil {
			t.Fatal(err)
		}
		k := NewKernel(h, b, v)
		var win Window
		for i, got := range wordBits(t, k, &win, view) {
			id, s := view.ID(i), view.Sketch(i)
			want := h.Bit(id.Bytes(), b.Tag(), v.Bytes(), s.Bytes())
			if got != want {
				t.Fatalf("lanes %d: Word disagrees with Biased.Bit at record %d", lanes, i)
			}
			if k.Evaluate(id, s) != want {
				t.Fatalf("lanes %d: Evaluate disagrees with Biased.Bit at record %d", lanes, i)
			}
		}
		w := 0
		keeps := [2]uint64{^uint64(0), 0x5555_5555_5555_5555}
		stageAndWord := func() {
			win.Stage(view, w%3, keeps[w%2])
			k.Word(&win)
			w++
		}
		if n := testing.AllocsPerRun(30, stageAndWord); n != 0 {
			t.Errorf("lanes %d: Stage and Word allocate %v times a window", lanes, n)
		}
	}
}

// TestKernelOracleFallback checks that a source that is not the keyed PRF
// (the truly random Oracle) goes through the kernel API unchanged, a record
// or a window at a time.
func TestKernelOracleFallback(t *testing.T) {
	o := prf.NewOracle(11, prf.MustProb(0.3))
	b := bitvec.MustSubset(0, 2)
	v := bitvec.MustFromString("01")
	view := viewOf(t, kernelTestRecords(b, 70))

	k := NewKernel(o, b, v)
	var win Window
	for i, got := range wordBits(t, k, &win, view) {
		id, s := view.ID(i), view.Sketch(i)
		want := o.Bit(id.Bytes(), b.Tag(), v.Bytes(), s.Bytes())
		if got != want {
			t.Fatalf("oracle fallback: Word disagrees at record %d", i)
		}
		if k.Evaluate(id, s) != want {
			t.Fatalf("oracle fallback: Evaluate disagrees for %v", id)
		}
	}
}

// TestKernelReuseAcrossQueries checks Reset fully respecialises a kernel —
// no state from the previous (B, v, key) may leak into the next query.
func TestKernelReuseAcrossQueries(t *testing.T) {
	h1 := kernelTestSource(0.3)
	h2 := prf.NewBiased(bytes.Repeat([]byte{0x77}, prf.MinKeyBytes), prf.MustProb(0.3))
	queries := []struct {
		h prf.BitSource
		b bitvec.Subset
		v bitvec.Vector
	}{
		{h1, bitvec.Range(0, 4), bitvec.MustFromString("1010")},
		{h2, bitvec.Range(0, 4), bitvec.MustFromString("1010")},
		{h1, bitvec.MustSubset(9), bitvec.MustFromString("1")},
		{h1, bitvec.Range(2, 10), bitvec.MustFromString("00110011")},
	}
	k := NewKernel(queries[0].h, queries[0].b, queries[0].v)
	for qi, q := range queries {
		k.Reset(q.h, q.b, q.v)
		records := kernelTestRecords(q.b, 64)
		for _, rec := range records {
			want := q.h.Bit(rec.ID.Bytes(), q.b.Tag(), q.v.Bytes(), rec.S.Bytes())
			if got := k.Evaluate(rec.ID, rec.S); got != want {
				t.Fatalf("query %d: reused kernel disagrees for %v", qi, rec.ID)
			}
		}
	}
}

// TestKernelEvaluateAllocatesNothing and the Sketcher test below keep the
// per-record paths of Algorithm 2 and Algorithm 1 allocation-free inside
// tier-1 (the kernel ratchet pins evaluate-kernel and sketch-one from the
// outside): the scalar PRF engine sums through an interface into a buffer
// the kernel's embedded evaluator owns, which must not escape per call.
func TestKernelEvaluateAllocatesNothing(t *testing.T) {
	k := NewKernel(kernelTestSource(0.3), bitvec.Range(0, 8), bitvec.FromUint(0x5A, 8))
	s := Sketch{Key: 123, Length: 10}
	k.Evaluate(1, s) // warm-up: the message scratch grows once
	id := bitvec.UserID(1)
	if n := testing.AllocsPerRun(100, func() { id++; k.Evaluate(id, s) }); n != 0 {
		t.Errorf("Kernel.Evaluate allocates %v times a call", n)
	}
}

// The search runs over a scratch the test owns, not sketcherPool's: a
// sync.Pool drops one Put in four under -race and all of them at a GC, and
// the New that follows would be counted here.  The pooled wrapper is pinned
// from the outside (sketch-one allocs=0 in cmd/sketchbench/kernels.txt).
func TestSketchSearchAllocatesNothing(t *testing.T) {
	sk, err := NewSketcher(kernelTestSource(0.3), MustParams(0.3, 10))
	if err != nil {
		t.Fatal(err)
	}
	sc := sketcherPool.New().(*sketcherScratch)
	subset := bitvec.Range(0, 8)
	profile := bitvec.Profile{ID: 1, Data: bitvec.FromUint(0xA5, 8)}
	rng := stats.NewRNG(1)
	search := func() {
		profile.ID++
		if _, err := sc.search(sk, rng, profile, subset); err != nil {
			t.Fatal(err)
		}
	}
	search() // warm-up: the value words and the kernel's buffers grow once
	if n := testing.AllocsPerRun(200, search); n != 0 {
		t.Errorf("Algorithm 1's key search allocates %v times a call", n)
	}
}

func TestSketchAppendBytesMatchesBytes(t *testing.T) {
	for _, s := range []Sketch{
		{Key: 0, Length: 1},
		{Key: 123, Length: 10},
		{Key: 1<<30 - 1, Length: 30},
		{Key: 0xA5, Length: 8},
	} {
		if got := s.AppendBytes(nil); !bytes.Equal(got, s.Bytes()) {
			t.Errorf("AppendBytes(%v) = %x, Bytes = %x", s, got, s.Bytes())
		}
		if s.EncodedLen() != len(s.Bytes()) {
			t.Errorf("EncodedLen(%v) = %d, len(Bytes) = %d", s, s.EncodedLen(), len(s.Bytes()))
		}
	}
}
