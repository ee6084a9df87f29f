package prf

import (
	"crypto/sha256"
	"encoding"
	"hash"
)

// HMAC-SHA-256 (RFC 2104).  The keyed hash is the cryptographic heart of
// the public function H: the database operator publishes a single long
// generator key (the paper asks for at least 300 bits) and every
// evaluation of H is an HMAC of the input tuple under that key.
//
// The key schedule lives here, and the scalar engine every lone
// evaluation runs: hmacState + resumed, the toolchain's SHA-256
// (crypto/sha256 — SHA-NI or AVX2 on amd64, ARMv8-SHA2 on arm64, its
// generic block under -tags purego) resumed from the key's saved ipad/opad
// midstates.  The direct RFC 2104 construction over a from-scratch FIPS
// 180-4 hash is the reference both engines are differenced against; it is
// test code (sha256ref_test.go), not part of the product.

// hmacState holds the per-key HMAC precomputation: the SHA-256 midstates
// reached after compressing the padded key blocks.  The midstates are what
// make evaluation cheap — each HMAC resumes from them instead of
// re-compressing the 64-byte ipad/opad blocks, saving two of the four
// compressions a short-message HMAC otherwise costs.  Each midstate is
// kept twice, once per engine and computed by that engine: marshaled, as
// the toolchain's hash saves itself (what crypto/hmac keeps inside
// itself), for the scalar engine to restore; and as raw state words for
// the 8-lane engine to broadcast.  The struct is immutable after
// construction, so any number of goroutines can evaluate against it
// concurrently without synchronisation.
type hmacState struct {
	// inner/outer are the toolchain hash's MarshalBinary after absorbing
	// ipad/opad.
	inner, outer []byte
	// istate/ostate are the same two compression states as words, from one
	// compress8 pass: lane 0 absorbs ipad, lane 1 opad.
	istate, ostate [8]uint32
}

func newHMACState(key []byte) *hmacState {
	var k [BlockSize]byte
	if len(key) > BlockSize {
		d := sha256.Sum256(key)
		copy(k[:], d[:])
	} else {
		copy(k[:], key)
	}
	var blocks laneBlocks
	ipad, opad := &blocks[0], &blocks[1]
	for i := 0; i < BlockSize; i++ {
		ipad[i] = k[i] ^ 0x36
		opad[i] = k[i] ^ 0x5c
	}
	s := &hmacState{inner: marshalAfter(ipad[:]), outer: marshalAfter(opad[:])}
	var states laneStates
	var w laneSchedule
	for i := range states {
		for l := range states[i] {
			states[i][l] = sha256InitState[i]
		}
	}
	compress8(&states, &blocks, &w)
	for i := range states {
		s.istate[i], s.ostate[i] = states[i][0], states[i][1]
	}
	return s
}

// resumableHash is what the scalar engine needs of the toolchain's
// SHA-256: the hash, and restoring it from a saved state.
type resumableHash interface {
	hash.Hash
	encoding.BinaryUnmarshaler
}

// marshalAfter returns the toolchain hash's saved state after absorbing
// prefix (a pad block).
func marshalAfter(prefix []byte) []byte {
	h := sha256.New()
	h.Write(prefix)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("prf: crypto/sha256 state does not marshal: " + err.Error())
	}
	return state
}

// resumed is the scalar engine's per-handle state: one toolchain hash,
// restored from a key's midstate twice per evaluation, and the digest
// buffer it sums into.  Nothing of a key outlives an evaluation in it, so
// rebinding a handle to another key is a pointer swap on the handle and no
// business of this struct.  The zero value is ready to use; the hash is
// made on first use because handles are embedded by value in pooled
// structs (sketch.Kernel) that start as zero values.
type resumed struct {
	h   resumableHash
	sum [DigestSize]byte
}

// hmac computes HMAC(key, msg) resuming from s's cached midstates.  It
// performs no allocations: the only compressions executed are for the
// message itself and the two final padding blocks.
func (r *resumed) hmac(s *hmacState, msg []byte) [DigestSize]byte {
	r.sumFrom(s.inner, msg)
	r.sumFrom(s.outer, r.sum[:])
	return r.sum
}

// sumFrom leaves in r.sum the digest of msg hashed on from a saved state.
func (r *resumed) sumFrom(state, msg []byte) {
	if r.h == nil {
		r.h = sha256.New().(resumableHash)
	}
	if err := r.h.UnmarshalBinary(state); err != nil {
		panic("prf: crypto/sha256 refused its own saved state: " + err.Error())
	}
	r.h.Write(msg)
	r.h.Sum(r.sum[:0])
}
