//go:build !amd64 || purego

package prf

// cpuidHasSHANI reports false: the SHA-NI kernel is built for amd64 only,
// and not under purego.
func cpuidHasSHANI() bool { return false }

// hmacSHANI is never called where the kernel is not built: useSHANI stays
// false.
func hmacSHANI(istate, ostate *[8]uint32, msg, tail []byte, out *[DigestSize]byte) {
	panic("prf: SHA-NI kernel called on a build without it")
}
