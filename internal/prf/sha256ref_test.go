package prf

import "encoding/binary"

// The reference: a from-scratch implementation of SHA-256 as specified in
// FIPS 180-4, and the direct RFC 2104 HMAC over it.  Only encoding/binary
// is used, so the function H is written out in this repository from the
// primitive operations and is easy to audit.
//
// It is test code, not an engine.  Evaluations of H run the SHA-NI kernel
// or the toolchain's crypto/sha256 (hmac.go) and, in batches, the 8-lane
// compress8 (sha256multi.go); all three are held bit-identical to this
// code by the NIST and RFC 4231 vectors, TestHMACStateMatchesOneShot,
// TestScalarEnginesAcrossLengths and FuzzMultiLaneEquivalence, so no engine
// is only ever compared with another.

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

// hmacPads returns the RFC 2104 inner and outer pad blocks of key: the key,
// hashed first when longer than a block, zero-padded and XORed with 0x36
// and 0x5c.
func hmacPads(key []byte) (ipad, opad [BlockSize]byte) {
	var k [BlockSize]byte
	if len(key) > BlockSize {
		d := Sum256(key)
		copy(k[:], d[:])
	} else {
		copy(k[:], key)
	}
	for i := 0; i < BlockSize; i++ {
		ipad[i] = k[i] ^ 0x36
		opad[i] = k[i] ^ 0x5c
	}
	return ipad, opad
}

// HMAC computes HMAC-SHA-256 of msg under key.
func HMAC(key, msg []byte) [DigestSize]byte {
	ipad, opad := hmacPads(key)

	inner := NewHasher()
	inner.Write(ipad[:])
	inner.Write(msg)
	innerSum := inner.Sum(nil)

	outer := NewHasher()
	outer.Write(opad[:])
	outer.Write(innerSum)

	var out [DigestSize]byte
	copy(out[:], outer.Sum(nil))
	return out
}
