package prf

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// nistVectors are FIPS 180-4 / NIST CAVP known-answer vectors.
var nistVectors = []struct {
	msg    string
	digest string
}{
	{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
		"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
	{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
		"cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
}

// padBlocks returns the standard SHA-256 padded stream of msg as whole
// 64-byte blocks, built independently of the code under test.
func padBlocks(msg []byte) [][BlockSize]byte {
	padded := append([]byte(nil), msg...)
	padded = append(padded, 0x80)
	for len(padded)%BlockSize != BlockSize-8 {
		padded = append(padded, 0)
	}
	padded = binary.BigEndian.AppendUint64(padded, uint64(len(msg))*8)
	blocks := make([][BlockSize]byte, len(padded)/BlockSize)
	for i := range blocks {
		copy(blocks[i][:], padded[i*BlockSize:])
	}
	return blocks
}

// laneDigest extracts lane l's digest bytes from a struct-of-arrays state.
func laneDigest(states *laneStates, l int) []byte {
	out := make([]byte, DigestSize)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint32(out[4*i:], states[i][l])
	}
	return out
}

// multiLaneEngine is one 8-lane compression engine.
type multiLaneEngine struct {
	name string
	fn   func(*laneStates, *laneBlocks, *laneSchedule)
}

// multiLaneEngines enumerates every compression engine.
func multiLaneEngines() []multiLaneEngine {
	engines := []multiLaneEngine{{"compress8-portable", compress8Portable}}
	if compress8asm != nil {
		engines = append(engines, multiLaneEngine{"compress8-asm", compress8asm})
	}
	return engines
}

// TestMultiLaneNISTVectors drives every engine over the FIPS 180-4 known
// answers, with a different vector in each lane so cross-lane mixing would
// be caught, and checks every lane lands on its reference digest.
func TestMultiLaneNISTVectors(t *testing.T) {
	for _, eng := range multiLaneEngines() {
		t.Run(eng.name, func(t *testing.T) {
			// Per-lane vectors, cycled; all padded to the max block count by
			// processing each lane's blocks in lockstep per step count.
			lanes := make([][][BlockSize]byte, lanesMax)
			maxBlocks := 0
			for l := 0; l < lanesMax; l++ {
				lanes[l] = padBlocks([]byte(nistVectors[l%len(nistVectors)].msg))
				if len(lanes[l]) > maxBlocks {
					maxBlocks = len(lanes[l])
				}
			}
			// Run each distinct block count as its own pass: lanes whose
			// message is shorter keep compressing their last block, and we
			// snapshot their digest at the step where they finish.
			var states laneStates
			var blocks laneBlocks
			var w laneSchedule
			for i := 0; i < 8; i++ {
				for l := 0; l < lanesMax; l++ {
					states[i][l] = sha256InitState[i]
				}
			}
			got := make([][]byte, lanesMax)
			for step := 0; step < maxBlocks; step++ {
				for l := 0; l < lanesMax; l++ {
					b := step
					if b >= len(lanes[l]) {
						b = len(lanes[l]) - 1
					}
					blocks[l] = lanes[l][b]
				}
				eng.fn(&states, &blocks, &w)
				for l := 0; l < lanesMax; l++ {
					if step == len(lanes[l])-1 {
						got[l] = laneDigest(&states, l)
					}
				}
			}
			for l := 0; l < lanesMax; l++ {
				want, _ := hex.DecodeString(nistVectors[l%len(nistVectors)].digest)
				if !bytes.Equal(got[l], want) {
					t.Errorf("lane %d (%q): got %x want %x",
						l, nistVectors[l%len(nistVectors)].msg, got[l], want)
				}
			}
		})
	}
}

// TestCompress8EnginesAgree holds the assembly engine bit-identical to the
// portable one over random states and blocks.
func TestCompress8EnginesAgree(t *testing.T) {
	if compress8asm == nil {
		t.Skip("no accelerated multi-lane engine on this architecture")
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for iter := 0; iter < 200; iter++ {
		var sa, sb laneStates
		var blocks laneBlocks
		var wa, wb laneSchedule
		for i := 0; i < 8; i++ {
			for l := 0; l < lanesMax; l++ {
				v := rng.Uint32()
				sa[i][l], sb[i][l] = v, v
			}
		}
		for l := 0; l < lanesMax; l++ {
			rng.Read(blocks[l][:])
		}
		compress8Portable(&sa, &blocks, &wa)
		compress8asm(&sb, &blocks, &wb)
		if sa != sb {
			t.Fatalf("iter %d: engines diverge:\nportable %v\nasm      %v", iter, sa, sb)
		}
	}
}

// TestMultiEvaluatorMatchesScalar checks every batch entry point against
// the scalar engine (a lone message) at every lane policy, over ragged
// message lengths that cross block boundaries.
func TestMultiEvaluatorMatchesScalar(t *testing.T) {
	defer SetLanes(0)
	f := NewFunc([]byte("multi-lane equivalence test key, 38 bytes"))
	ev := f.NewMultiEvaluator()
	var msgs [][]byte
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 54, 55, 56, 63, 64, 65, 118, 119, 120, 127, 128, 200, 54, 55, 300, 64, 0} {
		msg := make([]byte, n)
		rng.Read(msg)
		msgs = append(msgs, msg)
	}
	wantU := make([]uint64, len(msgs))
	wantD := make([][DigestSize]byte, len(msgs))
	for i, msg := range msgs {
		wantU[i] = ev.Uint64Msg(msg)
		wantD[i] = digestOne(ev, msg)
	}
	for _, lanes := range []int{0, 1, 8} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			if err := SetLanes(lanes); err != nil {
				t.Fatal(err)
			}
			me := f.NewMultiEvaluator()
			gotU := make([]uint64, len(msgs))
			gotD := make([][DigestSize]byte, len(msgs))
			me.Uint64Batch(msgs, gotU)
			me.DigestBatch(msgs, gotD)
			for i := range msgs {
				if gotU[i] != wantU[i] {
					t.Errorf("Uint64Batch[%d] (len %d): got %016x want %016x", i, len(msgs[i]), gotU[i], wantU[i])
				}
				if got := me.Uint64Msg(msgs[i]); got != wantU[i] {
					t.Errorf("Uint64Msg[%d] (len %d): got %016x want %016x", i, len(msgs[i]), got, wantU[i])
				}
				if gotD[i] != wantD[i] {
					t.Errorf("DigestBatch[%d] (len %d): got %x want %x", i, len(msgs[i]), gotD[i], wantD[i])
				}
			}
		})
	}
}

// FuzzMultiLaneEquivalence is the differential fuzzer over the product's
// two SHA-256 engines and the reference: random message sets with ragged
// lengths, evaluated at both lane widths, must be bit-for-bit identical to
// the scalar path (each message alone) — and the scalar path to the
// reference (HMAC over the from-scratch hash of sha256ref_test.go), so
// that neither engine is only ever compared with the other.
func FuzzMultiLaneEquivalence(f *testing.F) {
	f.Add([]byte("seed key"), []byte("hello multi-lane world"), uint64(3))
	f.Add([]byte(""), []byte{}, uint64(0))
	f.Add([]byte("k"), bytes.Repeat([]byte{0x55}, 700), uint64(0x123456789abcdef))
	f.Fuzz(func(t *testing.T, key, data []byte, cuts uint64) {
		defer SetLanes(0)
		fn := NewFunc(key)
		ev := fn.NewMultiEvaluator()
		// Carve data into up to 16 messages at pseudo-random cut points so
		// lengths are ragged and lane groups have tails.
		var msgs [][]byte
		rest := data
		for i := 0; i < 16 && len(rest) > 0; i++ {
			n := int(cuts>>(4*uint(i))&0xf) * (len(rest)/16 + 1)
			if n > len(rest) {
				n = len(rest)
			}
			msgs = append(msgs, rest[:n])
			rest = rest[n:]
		}
		msgs = append(msgs, rest)
		want := make([]uint64, len(msgs))
		wantD := make([][DigestSize]byte, len(msgs))
		for i, msg := range msgs {
			want[i] = ev.Uint64Msg(msg)
			wantD[i] = digestOne(ev, msg)
			if ref := HMAC(key, msg); wantD[i] != ref {
				t.Fatalf("scalar digest[%d] (len %d): got %x, reference %x", i, len(msg), wantD[i], ref)
			}
		}
		for _, lanes := range []int{1, 8} {
			if err := SetLanes(lanes); err != nil {
				t.Fatal(err)
			}
			me := fn.NewMultiEvaluator()
			got := make([]uint64, len(msgs))
			gotD := make([][DigestSize]byte, len(msgs))
			me.Uint64Batch(msgs, got)
			me.DigestBatch(msgs, gotD)
			for i := range msgs {
				if got[i] != want[i] {
					t.Fatalf("lanes=%d Uint64Batch[%d] (len %d): got %016x want %016x",
						lanes, i, len(msgs[i]), got[i], want[i])
				}
				if gotD[i] != wantD[i] {
					t.Fatalf("lanes=%d DigestBatch[%d] (len %d): got %x want %x",
						lanes, i, len(msgs[i]), gotD[i], wantD[i])
				}
			}
		}
	})
}

func BenchmarkCompressMulti(b *testing.B) {
	for _, eng := range multiLaneEngines() {
		b.Run(eng.name, func(b *testing.B) {
			var states laneStates
			var blocks laneBlocks
			var w laneSchedule
			for i := 0; i < 8; i++ {
				for l := 0; l < lanesMax; l++ {
					states[i][l] = sha256InitState[i]
				}
			}
			for l := 0; l < lanesMax; l++ {
				for j := range blocks[l] {
					blocks[l][j] = byte(l*13 + j)
				}
			}
			b.SetBytes(lanesMax * BlockSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.fn(&states, &blocks, &w)
			}
		})
	}
}

func BenchmarkUint64Batch(b *testing.B) {
	f := NewFunc([]byte("uint64 batch benchmark key, long enough!"))
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = bytes.Repeat([]byte{byte(i)}, 150)
	}
	out := make([]uint64, len(msgs))
	for _, lanes := range []int{1, 0} {
		name := "scalar"
		if lanes == 0 {
			name = "auto"
		}
		b.Run(name, func(b *testing.B) {
			defer SetLanes(0)
			if err := SetLanes(lanes); err != nil {
				b.Fatal(err)
			}
			me := f.NewMultiEvaluator()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				me.Uint64Batch(msgs, out)
			}
		})
	}
}
