// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build amd64 && !purego

// HMAC-SHA-256 from a key's midstates on the SHA extensions (SHA256RNDS2,
// SHA256MSG1, SHA256MSG2), in one call.  The round sequence is the Go
// toolchain's blockSHANI (crypto/internal/fips140/sha256, after S. Gulley
// et al., "New Instructions Supporting the Secure Hash Algorithm on Intel
// Architecture Processors", 2013), with these changes: the round
// constants are this package's sha256K, read at a 16-byte stride with the
// VEX form of PADDD (no alignment demand); the state starts from the raw
// ipad words a key schedule holds; and the loop runs three times — over
// the message's whole blocks, its padded tail and the outer block — with
// the state kept in registers between them.

#include "textflag.h"

// LOAD_STATE loads the eight state words at p and reorders them from
// DCBA/HGFE into the ABEF/CDGH halves SHA256RNDS2 works on.  Clobbers X7.
#define LOAD_STATE(p) \
	VMOVDQU (p), X1       \
	VMOVDQU 16(p), X2     \
	PSHUFD  $0xb1, X1, X1 \
	PSHUFD  $0x1b, X2, X2 \
	VMOVDQA X1, X7        \
	PALIGNR $0x08, X2, X1 \
	PBLENDW $0xf0, X7, X2

// DIGEST turns X1/X2 back into the state words in order, a..d in X1 and
// e..h in X2, and byte-swaps them: the digest's 32 bytes.  Clobbers X7.
#define DIGEST \
	PSHUFD  $0x1b, X1, X1 \
	PSHUFD  $0xb1, X2, X2 \
	VMOVDQA X1, X7        \
	PBLENDW $0xf0, X2, X1 \
	PALIGNR $0x08, X7, X2 \
	PSHUFB  X8, X1        \
	PSHUFB  X8, X2

// flipMask shuffles each 32-bit word of an xmm register from big-endian
// to host order.
DATA flipMask<>+0(SB)/8, $0x0405060700010203
DATA flipMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// func cpuidHasSHANI() bool
TEXT ·cpuidHasSHANI(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// CPUID.(1,0).ECX: SSSE3 (bit 9), SSE4.1 (bit 19), OSXSAVE (bit 27)
	// and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, DI
	ANDL $(1<<9 | 1<<19 | 1<<27 | 1<<28), DI
	CMPL DI, $(1<<9 | 1<<19 | 1<<27 | 1<<28)
	JNE  noSHA

	// XCR0 bits 1..2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noSHA

	// CPUID.(7,0).EBX bit 29: SHA.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $(1<<29), BX
	JZ    noSHA
	MOVB  $1, ret+0(FP)

noSHA:
	RET

// outerPad is the padding of the outer hash's one block after the 32-byte
// inner digest: 0x80, zeros, and the bit length of the opad block and the
// digest, 768, big-endian.
DATA outerPad<>+0(SB)/8, $0x80
DATA outerPad<>+8(SB)/8, $0
DATA outerPad<>+16(SB)/8, $0
DATA outerPad<>+24(SB)/8, $0x0003000000000000
GLOBL outerPad<>(SB), RODATA|NOPTR, $32

// func hmacSHANI(istate, ostate *[8]uint32, msg, tail []byte, out *[DigestSize]byte)
//
// One HMAC from the key's midstates, in three runs of the same loop: the
// message's whole blocks (R8 = 0), its padded tail (R8 = 1), and the outer
// block (R8 = 2), which is written over the tail's first 64 bytes.
TEXT ·hmacSHANI(SB), NOSPLIT, $0-72
	MOVQ istate+0(FP), DI
	LOAD_STATE(DI)
	VMOVDQU flipMask<>(SB), X8
	LEAQ ·sha256K(SB), AX
	MOVQ msg_base+16(FP), SI
	MOVQ msg_len+24(FP), DX
	ANDQ $~63, DX
	ADDQ SI, DX
	XORQ R8, R8
	CMPQ SI, DX
	JEQ  hmacRunDone

hmacLoop:
	// save hash values for addition after rounds
	VMOVDQA X1, X9
	VMOVDQA X2, X10

	// do rounds 0-59
	VMOVDQU     (SI), X0
	PSHUFB      X8, X0
	VMOVDQA     X0, X3
	VPADDD      0(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	VMOVDQU     16(SI), X0
	PSHUFB      X8, X0
	VMOVDQA     X0, X4
	VPADDD      16(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	VMOVDQU     32(SI), X0
	PSHUFB      X8, X0
	VMOVDQA     X0, X5
	VPADDD      32(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	VMOVDQU     48(SI), X0
	PSHUFB      X8, X0
	VMOVDQA     X0, X6
	VPADDD      48(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	VMOVDQA     X3, X0
	VPADDD      64(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	VMOVDQA     X4, X0
	VPADDD      80(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	VMOVDQA     X5, X0
	VPADDD      96(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	VMOVDQA     X6, X0
	VPADDD      112(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	VMOVDQA     X3, X0
	VPADDD      128(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	VMOVDQA     X4, X0
	VPADDD      144(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	VMOVDQA     X5, X0
	VPADDD      160(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	VMOVDQA     X6, X0
	VPADDD      176(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	VMOVDQA     X3, X0
	VPADDD      192(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	VMOVDQA     X4, X0
	VPADDD      208(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	VMOVDQA     X5, X0
	VPADDD      224(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	VMOVDQA     X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	VMOVDQA     X6, X0
	VPADDD      240(AX), X0, X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  hmacLoop

hmacRunDone:
	CMPQ R8, $1
	JEQ  hmacOuter
	JA   hmacFinish

	// The tail: one or two padded blocks.
	MOVQ tail_base+40(FP), SI
	MOVQ tail_len+48(FP), DX
	ANDQ $~63, DX
	ADDQ SI, DX
	MOVQ $1, R8
	JMP  hmacLoop

hmacOuter:
	// The outer block: the inner digest, then outerPad.
	DIGEST
	MOVQ    tail_base+40(FP), SI
	VMOVDQU X1, (SI)
	VMOVDQU X2, 16(SI)
	VMOVDQU outerPad<>+0(SB), X1
	VMOVDQU X1, 32(SI)
	VMOVDQU outerPad<>+16(SB), X1
	VMOVDQU X1, 48(SI)
	MOVQ    ostate+8(FP), DI
	LOAD_STATE(DI)
	LEAQ    64(SI), DX
	MOVQ    $2, R8
	JMP     hmacLoop

hmacFinish:
	DIGEST
	MOVQ    out+64(FP), DI
	VMOVDQU X1, (DI)
	VMOVDQU X2, 16(DI)
	RET
