//go:build amd64 && !purego

package prf

// cpuidHasSHANI reports whether the CPU and OS support what hmacSHANI
// runs on: CPUID advertises SHA, SSSE3, SSE4.1 and AVX+OSXSAVE, and XCR0
// confirms the OS saves the xmm/ymm register state.  Implemented in
// sha256ni_amd64.s.
func cpuidHasSHANI() bool

// hmacSHANI computes HMAC from a key's ipad/opad state words on the SHA
// extensions, in one call: the whole blocks of msg (a trailing partial
// block is ignored), then tail — msg's last partial block, padded as the
// inner hash ends, one or two whole blocks — then the outer block, which
// it builds over tail's first 64 bytes.  It writes the digest to out.
// Implemented in sha256ni_amd64.s.
//
//go:noescape
func hmacSHANI(istate, ostate *[8]uint32, msg, tail []byte, out *[DigestSize]byte)
