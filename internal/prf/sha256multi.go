package prf

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Multi-lane SHA-256: the compression function applied to several
// independent messages at once, in struct-of-arrays layout — state word i
// of lane l lives at states[i][l], message-schedule row i of lane l at
// w[i][l].  One evaluation of the public function H costs a handful of
// whole-block compressions (the HMAC midstates already paid for the key
// blocks), and Algorithm 2 evaluates H once per record per query pair, so
// the record loop is a stream of independent same-shape hashes — exactly
// the shape multi-buffer hashing wants.
//
// Two engines implement the 8-lane compress:
//
//   - a portable pure-Go one (below), correct on every GOARCH.  It is NOT
//     faster than the scalar engine under the gc compiler — 32 live state
//     words per 4 lanes spill out of the register file and gc does not
//     auto-vectorize — so lane auto-selection never picks it; it is the
//     reference the assembly is fuzzed against and what a forced width of
//     8 runs where there is no assembly;
//   - an AVX2 assembly one (sha256multi_amd64.s) holding each state word
//     as a ymm register of 8 lanes: ≈ 440 ns per eight blocks, against
//     ≈ 55 ns a block for the scalar engine (the toolchain's hash, hmac.go)
//     on a CPU with SHA-NI — level per block, so what decides between them
//     is staging against restoring — and several times the scalar engine's
//     rate on an AVX2 CPU without it.  When the CPU has AVX2, it is the
//     default (DESIGN.md "Lane model" has the matrix behind that).
//
// Both produce bit-identical digests to the from-scratch compress of the
// test reference (sha256ref_test.go); the differential fuzzer
// FuzzMultiLaneEquivalence and the NIST-vector tests in
// sha256multi_test.go hold them to that.  Besides batches, compress8 also
// computes each key's raw ipad/opad state words once, at key construction
// (newHMACState), so the words it broadcasts are its own.

// lanesMax is the lane count of the multi-lane engines; the staging arrays
// are sized for it.
const lanesMax = 8

// laneStates is the struct-of-arrays compression state for lanesMax lanes.
type laneStates = [8][lanesMax]uint32

// laneBlocks is one 64-byte input block per lane.
type laneBlocks = [lanesMax][BlockSize]byte

// laneSchedule is the shared message-schedule scratch for lanesMax lanes.
type laneSchedule = [64][lanesMax]uint32

// compress8asm, when non-nil, is the architecture's accelerated 8-lane
// compression (set by an init in a build-tagged file after CPU feature
// detection).  It must be bit-identical to compress8Portable.
var compress8asm func(states *laneStates, blocks *laneBlocks, w *laneSchedule)

// laneMode is the configured lane policy: 0 auto, 1 scalar, 8 lanes
// forced.  See SetLanes.
var laneMode atomic.Int32

// SetLanes configures the batch evaluators' lane policy: 0 restores the
// default automatic choice (8 lanes when the accelerated engine is
// available, scalar otherwise — the portable multi-lane code is never a
// win, see the package comment above), 1 forces the scalar path, and 8
// forces the multi-lane path regardless of profit.  Forcing exists for the
// differential fuzzer and the benchmark matrix; production code leaves the
// policy on auto.  Both widths are bit-identical.
func SetLanes(n int) error {
	switch n {
	case 0, 1, 8:
		laneMode.Store(int32(n))
		return nil
	}
	return fmt.Errorf("prf: unsupported lane width %d (want 0, 1 or 8)", n)
}

// Lanes resolves the configured policy to the effective batch width the
// evaluators will use: 1 or 8.
func Lanes() int {
	if mode := laneMode.Load(); mode != 0 {
		return int(mode)
	}
	if compress8asm != nil {
		return 8
	}
	return 1
}

// HasAcceleratedLanes reports whether the architecture's multi-lane
// assembly engine is active (and therefore whether lane auto-selection
// batches at all).
func HasAcceleratedLanes() bool { return compress8asm != nil }

// MultiLaneBlockBench advances a local 8-lane state by n blocks through
// the widest engine (assembly when available) and returns a state word so
// callers keep the work observable.  It exists for the benchmark harness
// (cmd/sketchbench), which measures the raw engine without access to the
// unexported lane types; it is not part of the evaluation API.
func MultiLaneBlockBench(n int) uint32 {
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
			blocks[l][j] = byte(l*31 + j)
		}
	}
	for i := 0; i < n; i++ {
		compress8(&states, &blocks, &w)
	}
	return states[0][0]
}

// compress8 advances all 8 lanes of states by one block each.
func compress8(states *laneStates, blocks *laneBlocks, w *laneSchedule) {
	if compress8asm != nil {
		compress8asm(states, blocks, w)
		return
	}
	compress8Portable(states, blocks, w)
}

// compress8Portable is the pure-Go 8-lane compression: load and byte-swap
// the blocks into the shared schedule, then run the 4-lane kernel twice.
func compress8Portable(states *laneStates, blocks *laneBlocks, w *laneSchedule) {
	for i := 0; i < 16; i++ {
		for l := 0; l < lanesMax; l++ {
			w[i][l] = binary.BigEndian.Uint32(blocks[l][4*i:])
		}
	}
	compress4(states, w, 0)
	compress4(states, w, 4)
}

// compress4 runs the SHA-256 compression rounds over lanes lo..lo+3 of the
// struct-of-arrays state.  Rows w[0..15] of those lanes must already hold
// the big-endian-decoded block words; rows 16..63 are expanded in place.
func compress4(states *laneStates, w *laneSchedule, lo int) {
	for i := 16; i < 64; i++ {
		for l := lo; l < lo+4; l++ {
			x15, x2 := w[i-15][l], w[i-2][l]
			s0 := rotr(x15, 7) ^ rotr(x15, 18) ^ (x15 >> 3)
			s1 := rotr(x2, 17) ^ rotr(x2, 19) ^ (x2 >> 10)
			w[i][l] = w[i-16][l] + s0 + w[i-7][l] + s1
		}
	}
	var a, b, c, d, e, f, g, hh [4]uint32
	for l := 0; l < 4; l++ {
		a[l], b[l], c[l], d[l] = states[0][lo+l], states[1][lo+l], states[2][lo+l], states[3][lo+l]
		e[l], f[l], g[l], hh[l] = states[4][lo+l], states[5][lo+l], states[6][lo+l], states[7][lo+l]
	}
	for i := 0; i < 64; i++ {
		k := sha256K[i]
		wi := &w[i]
		for l := 0; l < 4; l++ {
			S1 := rotr(e[l], 6) ^ rotr(e[l], 11) ^ rotr(e[l], 25)
			ch := (e[l] & f[l]) ^ (^e[l] & g[l])
			t1 := hh[l] + S1 + ch + k + wi[lo+l]
			S0 := rotr(a[l], 2) ^ rotr(a[l], 13) ^ rotr(a[l], 22)
			maj := (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l])
			t2 := S0 + maj
			hh[l], g[l], f[l], e[l] = g[l], f[l], e[l], d[l]+t1
			d[l], c[l], b[l], a[l] = c[l], b[l], a[l], t1+t2
		}
	}
	for l := 0; l < 4; l++ {
		states[0][lo+l] += a[l]
		states[1][lo+l] += b[l]
		states[2][lo+l] += c[l]
		states[3][lo+l] += d[l]
		states[4][lo+l] += e[l]
		states[5][lo+l] += f[l]
		states[6][lo+l] += g[l]
		states[7][lo+l] += hh[l]
	}
}
