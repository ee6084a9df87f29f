package prf

import "encoding/binary"

// This file contains a from-scratch implementation of SHA-256 as specified
// in FIPS 180-4.  The paper instantiates its public pseudorandom function
// with a collision-free hash (MD5 or WHIRLPOOL); SHA-256 plays that role
// here.  Only encoding/binary is used, so the function H is written out in
// this repository from the primitive operations and is easy to audit.
//
// It is the reference, not the engine.  Evaluations of H run the
// toolchain's crypto/sha256 (hmac.go: hardware SHA where the CPU has it)
// and, in batches on AVX2, the 8-lane assembly (sha256multi_amd64.s); both
// are held bit-identical to this code by the NIST and RFC 4231 vectors,
// TestHMACStateMatchesOneShot and FuzzMultiLaneEquivalence.  What still
// runs it outside tests: compress extracts, once per key, the raw ipad/opad
// state words the 8-lane engine resumes from.

// DigestSize is the size of a SHA-256 digest in bytes.
const DigestSize = 32

// BlockSize is the SHA-256 block size in bytes.
const BlockSize = 64

// sha256InitState is the initial hash value H(0): the first 32 bits of the
// fractional parts of the square roots of the first 8 primes.
var sha256InitState = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// sha256K holds the 64 round constants: the first 32 bits of the fractional
// parts of the cube roots of the first 64 primes.
var sha256K = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
	0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
	0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
	0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
	0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
	0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
	0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
	0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
	0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// Hasher computes SHA-256 digests incrementally.  The zero value is not
// usable; call NewHasher or Reset first.
type Hasher struct {
	state  [8]uint32
	buf    [BlockSize]byte
	bufLen int
	length uint64 // total bytes written
}

// NewHasher returns a Hasher initialized to the SHA-256 initial state.
func NewHasher() *Hasher {
	h := &Hasher{}
	h.Reset()
	return h
}

// Reset restores the initial state so the Hasher can be reused.
func (h *Hasher) Reset() {
	h.state = sha256InitState
	h.bufLen = 0
	h.length = 0
}

// Write absorbs p into the hash state.  It never returns an error.
func (h *Hasher) Write(p []byte) (int, error) {
	n := len(p)
	h.length += uint64(n)
	if h.bufLen > 0 {
		c := copy(h.buf[h.bufLen:], p)
		h.bufLen += c
		p = p[c:]
		if h.bufLen == BlockSize {
			compress(&h.state, h.buf[:])
			h.bufLen = 0
		}
	}
	for len(p) >= BlockSize {
		compress(&h.state, p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		h.bufLen = copy(h.buf[:], p)
	}
	return n, nil
}

// Sum appends the digest of everything written so far to in and returns the
// result.  The Hasher state is not modified, so further writes continue the
// same message.
func (h *Hasher) Sum(in []byte) []byte {
	d := h.SumDigest()
	return append(in, d[:]...)
}

// SumDigest returns the digest of everything written so far as a value,
// without allocating.  Like Sum, it leaves the Hasher state untouched.
func (h *Hasher) SumDigest() [DigestSize]byte {
	// Work on a copy so the caller can keep writing.
	cp := *h
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	msgLen := cp.length
	padLen := BlockSize - (int(msgLen) % BlockSize)
	if padLen < 9 {
		padLen += BlockSize
	}
	binary.BigEndian.PutUint64(pad[padLen-8:padLen], msgLen*8)
	cp.Write(pad[:padLen])
	var out [DigestSize]byte
	for i, s := range cp.state {
		binary.BigEndian.PutUint32(out[4*i:], s)
	}
	return out
}

// Sum256 returns the SHA-256 digest of data.
func Sum256(data []byte) [DigestSize]byte {
	var h Hasher
	h.Reset()
	h.Write(data)
	return h.SumDigest()
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }

// compress applies the SHA-256 compression function to one 64-byte block.
func compress(state *[8]uint32, block []byte) {
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(block[4*i:])
	}
	for i := 16; i < 64; i++ {
		s0 := rotr(w[i-15], 7) ^ rotr(w[i-15], 18) ^ (w[i-15] >> 3)
		s1 := rotr(w[i-2], 17) ^ rotr(w[i-2], 19) ^ (w[i-2] >> 10)
		w[i] = w[i-16] + s0 + w[i-7] + s1
	}

	a, b, c, d, e, f, g, hh := state[0], state[1], state[2], state[3],
		state[4], state[5], state[6], state[7]

	for i := 0; i < 64; i++ {
		S1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := (e & f) ^ (^e & g)
		t1 := hh + S1 + ch + sha256K[i] + w[i]
		S0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := (a & b) ^ (a & c) ^ (b & c)
		t2 := S0 + maj

		hh = g
		g = f
		f = e
		e = d + t1
		d = c
		c = b
		b = a
		a = t1 + t2
	}

	state[0] += a
	state[1] += b
	state[2] += c
	state[3] += d
	state[4] += e
	state[5] += f
	state[6] += g
	state[7] += hh
}
