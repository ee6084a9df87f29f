// Package prf provides the pseudorandom-function substrate used by the
// sketching mechanism of Mishra & Sandler, "Privacy via Pseudorandom
// Sketches" (PODS 2006).
//
// The paper assumes a public function H that, on any fresh input tuple
// (user id, attribute subset, candidate value, sketch key), returns 1 with
// probability p and 0 otherwise, with all values mutually independent.  The
// paper instantiates H with a collision-free cryptographic hash (it mentions
// MD5 and WHIRLPOOL) followed by a comparison of the hash output, read as a
// binary fraction, against the binary expansion of p.
//
// This package provides that construction using only the standard library:
//
//   - HMAC-SHA-256 (hmac.go) to key the function with a global database
//     key, mirroring the paper's "global pseudorandom function for the
//     entire database" whose generator key is at least 300 bits.  The
//     engine that evaluates it — "scalar" throughout this repository — is
//     the toolchain's crypto/sha256 (SHA-NI or AVX2 on amd64, ARMv8-SHA2 on
//     arm64, generic Go under -tags purego), resumed from the key's saved
//     ipad/opad midstates so a short-message evaluation costs two or three
//     compressions and no allocation; batches of same-shape messages go
//     through an 8-lane AVX2 compress of this package's own where the CPU
//     has it (sha256multi.go), which also computes the raw midstate words
//     it broadcasts.  These two are the only SHA-256 code the package
//     runs.
//   - Two handles on H: Func, thread-safe, pools the scalar engine for
//     lone tuples (prf.go: a counter-mode expander that turns the keyed
//     hash into an arbitrary-length pseudorandom stream and fixed-width
//     integers); MultiEvaluator, one per goroutine, evaluates batches of
//     pre-encoded messages on the 8-lane engine and lone ones on the
//     scalar engine (multieval.go).
//   - A FIPS 180-4 SHA-256 written from the primitive operations, and the
//     direct RFC 2104 HMAC over it, are the reference both engines are
//     differenced against — test code (sha256ref_test.go), so the whole
//     pipeline stays auditable in one place whatever hardware runs it.
//   - The p-biased bit extraction (biased.go): interpret the first 64 bits
//     of the PRF output as a fixed-point fraction in [0,1) and report 1 when
//     it falls below the threshold encoding of p (Prob.Decide).  Biased is
//     the thread-safe form; a record loop binds a MultiEvaluator to
//     Biased.Func() and thresholds its outputs against Biased.Prob() itself
//     (sketch.Kernel).
//   - A truly random oracle (oracle.go) with the same interface, backed by a
//     lazily populated table of independent coin flips.  The paper's utility
//     proofs are carried out against a truly random function and then
//     transferred to the pseudorandom instantiation; the oracle lets tests
//     and ablation benchmarks perform exactly that comparison.
//
// Both implementations satisfy the BitSource interface consumed by the
// sketch and query packages.
package prf
