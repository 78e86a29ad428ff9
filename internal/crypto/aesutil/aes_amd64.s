// AES-128 on the AES-NI instructions, for ExpandedKey: a key schedule the
// caller owns and re-keys in place. Round keys are stored as the
// instructions read them (16 bytes each, memory order); the decryption
// schedule is the equivalent inverse cipher's, in the order AESDEC uses
// it. After GOROOT/src/crypto/internal/fips140/aes/aes_amd64.s (BSD
// licence, The Go Authors), cut down to one key size.

//go:build !purego

#include "textflag.h"

// func cpuidAES() bool — CPUID.1:ECX bits 25 (AES) and 9 (SSSE3, for the
// expansion's PSHUFB).
TEXT ·cpuidAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, DX
	SHRL $25, CX
	SHRL $9, DX
	ANDL DX, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// KEYROUND derives round key off/16 from the previous one in X0, without
// the key-generation-assist instruction (microcoded on common server
// cores). PSHUFB on the mask in X5 broadcasts RotWord(w3) into all four
// columns, so AESENCLAST's ShiftRows moves nothing and it returns
// SubWord(RotWord(w3)) ⊕ rcon in every word, rcon being X6's round key.
// The three PSLLDQ/PXOR pairs fold the running XOR of the previous key's
// words into X0 meanwhile: folding them into AESENCLAST's round key
// instead puts them on the critical path, 20 % slower. X6 doubles for the
// next round.
#define KEYROUND(off) \
	MOVOU      X0, X1 \
	PSHUFB     X5, X1 \
	AESENCLAST X6, X1 \
	MOVOU      X0, X3 \
	PSLLDQ     $4, X3 \
	PXOR       X3, X0 \
	PSLLDQ     $4, X3 \
	PXOR       X3, X0 \
	PSLLDQ     $4, X3 \
	PXOR       X3, X0 \
	PXOR       X1, X0 \
	MOVUPS     X0, off(BX) \
	PSLLL      $1, X6

// BROADCAST sets every 32-bit word of x to the constant c.
#define BROADCAST(c, x) \
	MOVQ   $c, AX \
	MOVQ   AX, x \
	PSHUFD $0, x, x

// func expandEnc(enc *[44]uint32, key *Key)
TEXT ·expandEnc(SB), NOSPLIT, $0-16
	MOVQ   enc+0(FP), BX
	MOVQ   key+8(FP), AX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	BROADCAST(0x0c0f0e0d, X5)
	BROADCAST(0x01, X6)
	KEYROUND(16)
	KEYROUND(32)
	KEYROUND(48)
	KEYROUND(64)
	KEYROUND(80)
	KEYROUND(96)
	KEYROUND(112)
	KEYROUND(128)
	BROADCAST(0x1b, X6) // 0x80 doubled leaves GF(2^8): reduce by hand
	KEYROUND(144)
	KEYROUND(160)
	RET

#define INVKEY(from, to) \
	MOVUPS from(AX), X0 \
	AESIMC X0, X0 \
	MOVUPS X0, to(DX)

// func expandDec(dec, enc *[44]uint32)
TEXT ·expandDec(SB), NOSPLIT, $0-16
	MOVQ   dec+0(FP), DX
	MOVQ   enc+8(FP), AX
	MOVUPS 160(AX), X0
	MOVUPS X0, (DX)
	INVKEY(144, 16)
	INVKEY(128, 32)
	INVKEY(112, 48)
	INVKEY(96, 64)
	INVKEY(80, 80)
	INVKEY(64, 96)
	INVKEY(48, 112)
	INVKEY(32, 128)
	INVKEY(16, 144)
	MOVUPS (AX), X0
	MOVUPS X0, 160(DX)
	RET

// The schedule is only 4-byte aligned, so round keys go through MOVUPS.
#define ENC(off) \
	MOVUPS off(AX), X1 \
	AESENC X1, X0

#define DEC(off) \
	MOVUPS off(AX), X1 \
	AESDEC X1, X0

// func encryptBlock(enc *[44]uint32, dst, src *[16]byte)
TEXT ·encryptBlock(SB), NOSPLIT, $0-24
	MOVQ       enc+0(FP), AX
	MOVQ       dst+8(FP), DX
	MOVQ       src+16(FP), BX
	MOVUPS     (BX), X0
	MOVUPS     (AX), X1
	PXOR       X1, X0
	ENC(16)
	ENC(32)
	ENC(48)
	ENC(64)
	ENC(80)
	ENC(96)
	ENC(112)
	ENC(128)
	ENC(144)
	MOVUPS     160(AX), X1
	AESENCLAST X1, X0
	MOVUPS     X0, (DX)
	RET

// func decryptBlock(dec *[44]uint32, dst, src *[16]byte)
TEXT ·decryptBlock(SB), NOSPLIT, $0-24
	MOVQ       dec+0(FP), AX
	MOVQ       dst+8(FP), DX
	MOVQ       src+16(FP), BX
	MOVUPS     (BX), X0
	MOVUPS     (AX), X1
	PXOR       X1, X0
	DEC(16)
	DEC(32)
	DEC(48)
	DEC(64)
	DEC(80)
	DEC(96)
	DEC(112)
	DEC(128)
	DEC(144)
	MOVUPS     160(AX), X1
	AESDECLAST X1, X0
	MOVUPS     X0, (DX)
	RET
