// AES-128 on the AES-NI instructions, for ExpandedKey: a key schedule the
// caller owns and re-keys in place. Round keys are stored as the
// instructions read them (16 bytes each, memory order); the decryption
// schedule is the equivalent inverse cipher's, in the order AESDEC uses
// it. After GOROOT/src/crypto/internal/fips140/aes/aes_amd64.s (BSD
// licence, The Go Authors), cut down to one key size.

//go:build !purego

#include "textflag.h"

// func cpuidAES() bool — CPUID.1:ECX bit 25.
TEXT ·cpuidAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// KEYROUND derives round key off/16 from the previous one in X0. X4's low
// word is zero throughout, which is what makes the two SHUFPS/PXOR pairs
// the running XOR of the previous key's four words.
#define KEYROUND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1 \
	PSHUFD $0xff, X1, X1 \
	SHUFPS $0x10, X0, X4 \
	PXOR   X4, X0 \
	SHUFPS $0x8c, X0, X4 \
	PXOR   X4, X0 \
	PXOR   X1, X0 \
	MOVUPS X0, off(BX)

// func expandEnc(enc *[44]uint32, key *Key)
TEXT ·expandEnc(SB), NOSPLIT, $0-16
	MOVQ   enc+0(FP), BX
	MOVQ   key+8(FP), AX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	PXOR   X4, X4
	KEYROUND(0x01, 16)
	KEYROUND(0x02, 32)
	KEYROUND(0x04, 48)
	KEYROUND(0x08, 64)
	KEYROUND(0x10, 80)
	KEYROUND(0x20, 96)
	KEYROUND(0x40, 112)
	KEYROUND(0x80, 128)
	KEYROUND(0x1b, 144)
	KEYROUND(0x36, 160)
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
