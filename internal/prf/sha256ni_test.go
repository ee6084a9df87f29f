package prf

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"
)

// scalarEngine is one implementation of the scalar engine, selected
// through the useSHANI seam.
type scalarEngine struct {
	name  string
	shani bool
}

// allScalarEngines are the SHA-NI kernel and the crypto/sha256 fallback.
var allScalarEngines = []scalarEngine{{"sha-ni", true}, {"crypto-sha256", false}}

// scalarEngines lists the scalar engines this machine runs: the SHA-NI
// kernel where the CPU has it, and the crypto/sha256 fallback everywhere.
func scalarEngines() []scalarEngine {
	if hasSHANI {
		return allScalarEngines
	}
	return allScalarEngines[1:]
}

// hasSHANI is what CPUID made of the seam before any test cleared it:
// whether the kernel runs here.
var hasSHANI = useSHANI

// use selects e for the rest of the test, restoring the detected engine at
// its end.
func (e scalarEngine) use(tb testing.TB) {
	tb.Cleanup(func() { useSHANI = hasSHANI })
	useSHANI = e.shani
}

// eachScalarEngine runs fn as a subtest per scalar engine; the kernel's
// subtest skips, saying so, where the CPU lacks the SHA extensions.
func eachScalarEngine(t *testing.T, fn func(t *testing.T)) {
	for _, e := range allScalarEngines {
		t.Run(e.name, func(t *testing.T) {
			if e.shani {
				skipWithoutSHANI(t)
			}
			e.use(t)
			fn(t)
		})
	}
}

// skipWithoutSHANI skips a test of the SHA-NI kernel where it does not run.
func skipWithoutSHANI(t *testing.T) {
	t.Helper()
	if !hasSHANI {
		t.Skip("SHA-NI kernel not run: the CPU lacks the SHA extensions, or the build is not amd64 without purego")
	}
}

// kernelRun runs the SHA-NI kernel once over msg's whole blocks and the
// padded tail, and returns what it leaves in tail: the outer block it
// builds there, whose first 32 bytes are the inner digest.
func kernelRun(istate, ostate [8]uint32, msg, tail []byte) (outer [BlockSize]byte, digest [DigestSize]byte) {
	tail = append([]byte(nil), tail...)
	hmacSHANI(&istate, &ostate, msg, tail, &digest)
	copy(outer[:], tail)
	return outer, digest
}

// referenceOuter is the outer block of HMAC-SHA-256 after an inner state:
// the inner digest, 0x80, zeros and the bit length 768.
func referenceOuter(inner [8]uint32) (outer [BlockSize]byte) {
	for i, w := range inner {
		binary.BigEndian.PutUint32(outer[4*i:], w)
	}
	outer[DigestSize] = 0x80
	binary.BigEndian.PutUint64(outer[BlockSize-8:], (BlockSize+DigestSize)*8)
	return outer
}

// TestSHANINISTVectors runs the FIPS 180-4 known answers through the
// kernel's inner hash from the initial state — padded by the test's own
// code, the last block as the tail — and holds each digest it leaves in
// the outer block to the vector and to the from-scratch reference.
func TestSHANINISTVectors(t *testing.T) {
	skipWithoutSHANI(t)
	vectors := append([]struct{ msg, digest string }(nil), nistVectors...)
	for _, v := range sha256Vectors {
		vectors = append(vectors, struct{ msg, digest string }{v.in, v.want})
	}
	for _, v := range vectors {
		var padded []byte
		for _, b := range padBlocks([]byte(v.msg)) {
			padded = append(padded, b[:]...)
		}
		cut := len(padded) - BlockSize
		outer, _ := kernelRun(sha256InitState, sha256InitState, padded[:cut], padded[cut:])
		got := outer[:DigestSize]
		if hex.EncodeToString(got) != v.digest {
			t.Errorf("%.32q: kernel digest %x, want %s", v.msg, got, v.digest)
		}
		if ref := Sum256([]byte(v.msg)); !bytes.Equal(got, ref[:]) {
			t.Errorf("%.32q: kernel digest %x, reference %x", v.msg, got, ref)
		}
	}
}

// TestSHANIMatchesReferenceCompress holds the kernel to the reference
// compress from random ipad and opad states: over runs of random whole
// blocks with a trailing partial block it must ignore, a random tail of
// one or two blocks, and the outer block it builds.
func TestSHANIMatchesReferenceCompress(t *testing.T) {
	skipWithoutSHANI(t)
	rng := rand.New(rand.NewSource(0x5ba))
	for iter := 0; iter < 300; iter++ {
		var istate, ostate [8]uint32
		for i := range istate {
			istate[i], ostate[i] = rng.Uint32(), rng.Uint32()
		}
		msg := make([]byte, rng.Intn(5*BlockSize))
		rng.Read(msg)
		tail := make([]byte, BlockSize*(1+rng.Intn(2)))
		rng.Read(tail)

		inner := istate
		for off := 0; off+BlockSize <= len(msg); off += BlockSize {
			compress(&inner, msg[off:off+BlockSize])
		}
		for off := 0; off < len(tail); off += BlockSize {
			compress(&inner, tail[off:off+BlockSize])
		}
		wantOuter := referenceOuter(inner)
		final := ostate
		compress(&final, wantOuter[:])
		var want [DigestSize]byte
		for i, w := range final {
			binary.BigEndian.PutUint32(want[4*i:], w)
		}

		outer, got := kernelRun(istate, ostate, msg, tail)
		if outer != wantOuter {
			t.Fatalf("iter %d (%d B, tail %d B): outer block %x, reference %x", iter, len(msg), len(tail), outer, wantOuter)
		}
		if got != want {
			t.Fatalf("iter %d (%d B, tail %d B): digest %x, reference %x", iter, len(msg), len(tail), got, want)
		}
	}
}

// TestScalarEnginesAcrossLengths runs every message length 0…300 — the
// inner hash's last block fills at 55/56, 119/120 and 183/184, the
// message's own at each multiple of 64 — through every entry point that
// reaches the scalar engine, on each engine, against the reference HMAC.
// Batches run at both lane policies; a width of 8 hands its lone leftovers
// to the engine under test.
func TestScalarEnginesAcrossLengths(t *testing.T) {
	const maxLen = 300
	key := []byte("scalar engine differential key, 38 B.")
	data := make([]byte, maxLen)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	msgs := make([][]byte, maxLen+1)
	want := make([][DigestSize]byte, len(msgs))
	for n := range msgs {
		msgs[n] = data[:n]
		want[n] = HMAC(key, msgs[n])
	}
	eachScalarEngine(t, func(t *testing.T) {
		defer SetLanes(0)
		f := NewFunc(key)
		me := f.NewMultiEvaluator()
		for n, m := range msgs {
			if got := me.Uint64Msg(m); got != binary.BigEndian.Uint64(want[n][:8]) {
				t.Fatalf("Uint64Msg(%d B) = %016x, want %x", n, got, want[n][:8])
			}
			if d, w := f.Digest(m), HMAC(key, encodeTuple(nil, m)); d != w {
				t.Fatalf("Func.Digest(%d B part) = %x, want %x", n, d, w)
			}
			// One counter block of Expand is H of the tuple and an 8-byte
			// counter; two cover a second evaluation on the same handle.
			var got [2 * DigestSize]byte
			f.Expand(got[:], m)
			base := encodeTuple(nil, m)
			for c := 0; c < 2; c++ {
				w := HMAC(key, binary.BigEndian.AppendUint64(append([]byte(nil), base...), uint64(c)))
				if !bytes.Equal(got[c*DigestSize:(c+1)*DigestSize], w[:]) {
					t.Fatalf("Func.Expand(%d B part) block %d = %x, want %x", n, c, got[c*DigestSize:(c+1)*DigestSize], w)
				}
			}
		}
		gotU := make([]uint64, len(msgs))
		gotD := make([][DigestSize]byte, len(msgs))
		for _, lanes := range []int{1, 8} {
			if err := SetLanes(lanes); err != nil {
				t.Fatal(err)
			}
			me.Uint64Batch(msgs, gotU)
			me.DigestBatch(msgs, gotD)
			for n := range msgs {
				if gotD[n] != want[n] {
					t.Fatalf("lanes %d: DigestBatch[%d B] = %x, want %x", lanes, n, gotD[n], want[n])
				}
				if gotU[n] != binary.BigEndian.Uint64(want[n][:8]) {
					t.Fatalf("lanes %d: Uint64Batch[%d B] = %016x, want %x", lanes, n, gotU[n], want[n][:8])
				}
			}
		}
	})
}

// TestAutoLanesPicksSHANI pins the automatic lane policy: scalar where the
// kernel runs, 8 where only the AVX2 assembly does, scalar elsewhere.
func TestAutoLanesPicksSHANI(t *testing.T) {
	defer SetLanes(0)
	if err := SetLanes(0); err != nil {
		t.Fatal(err)
	}
	for _, e := range scalarEngines() {
		e.use(t)
		want := 1
		if !e.shani && compress8asm != nil {
			want = 8
		}
		if got := Lanes(); got != want {
			t.Errorf("%s: auto Lanes() = %d, want %d", e.name, got, want)
		}
	}
}

// BenchmarkUint64Msg times one evaluation on each scalar engine: an
// 83-byte message (a query scan's, two inner blocks) and a 150-byte one
// (three).  Under GODEBUG=cpu.sha=off the crypto-sha256 legs run the
// toolchain's AVX2 block: the scalar engine of an AVX2 CPU without SHA.
func BenchmarkUint64Msg(b *testing.B) {
	f := NewFunc([]byte("uint64 msg benchmark key, long enough!!"))
	for _, e := range scalarEngines() {
		for _, n := range []int{83, 150} {
			b.Run(e.name+"/"+strconv.Itoa(n), func(b *testing.B) {
				e.use(b)
				me := f.NewMultiEvaluator()
				msg := bytes.Repeat([]byte{0x11}, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					me.Uint64Msg(msg)
				}
			})
		}
	}
}

// BenchmarkSHANIBlocks times the kernel's rate per block: one call hashes
// 64 message blocks, a one-block tail and the outer block.
func BenchmarkSHANIBlocks(b *testing.B) {
	if !hasSHANI {
		b.Skip("SHA-NI kernel not run on this machine")
	}
	st := sha256InitState
	msg := make([]byte, 64*BlockSize)
	tail := make([]byte, BlockSize)
	var out [DigestSize]byte
	for i := 0; i < b.N; i++ {
		hmacSHANI(&st, &st, msg, tail, &out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(66*b.N), "ns/block")
}
