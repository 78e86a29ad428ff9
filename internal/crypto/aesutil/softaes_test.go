package aesutil

import (
	"bytes"
	"crypto/aes"
	mathrand "math/rand"
	"net/netip"
	"testing"
)

// TestExpandedKeyMatchesStdlib cross-checks the software AES against
// crypto/aes over many random keys and blocks, including re-keying the
// same ExpandedKey (the hot-path usage pattern).
func TestExpandedKeyMatchesStdlib(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(42))
	var ek ExpandedKey
	for i := 0; i < 2000; i++ {
		var key Key
		var pt [16]byte
		rng.Read(key[:])
		rng.Read(pt[:])

		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want, got [16]byte
		ref.Encrypt(want[:], pt[:])

		ek.Expand(key)
		ek.EncryptBlock(&got, &pt)
		if want != got {
			t.Fatalf("iter %d: encrypt mismatch\nkey  %x\npt   %x\nwant %x\ngot  %x", i, key, pt, want, got)
		}

		var back [16]byte
		ek.DecryptBlock(&back, &got)
		if back != pt {
			t.Fatalf("iter %d: decrypt(encrypt(pt)) != pt: %x vs %x", i, back, pt)
		}
		ref.Decrypt(back[:], want[:])
		var softBack [16]byte
		ek.DecryptBlock(&softBack, &want)
		if back != softBack {
			t.Fatalf("iter %d: decrypt mismatch vs stdlib", i)
		}
	}
}

// TestExpandedKeyFIPSVector checks the FIPS-197 appendix C.1 vector.
func TestExpandedKeyFIPSVector(t *testing.T) {
	key := Key{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	pt := [16]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	want := [16]byte{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a}
	var ek ExpandedKey
	ek.Expand(key)
	var got [16]byte
	ek.EncryptBlock(&got, &pt)
	if got != want {
		t.Fatalf("FIPS-197 C.1: got %x want %x", got, want)
	}
	var back [16]byte
	ek.DecryptBlock(&back, &got)
	if back != pt {
		t.Fatalf("FIPS-197 C.1 decrypt: got %x want %x", back, pt)
	}
}

// TestAddrBlockXMatchesSlowPath verifies the zero-alloc address block
// operations agree with EncryptAddr/DecryptAddr in both directions.
func TestAddrBlockXMatchesSlowPath(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(7))
	var ek ExpandedKey
	for i := 0; i < 500; i++ {
		var key Key
		var salt [8]byte
		var a4 [4]byte
		rng.Read(key[:])
		rng.Read(salt[:])
		rng.Read(a4[:])
		addr := netip.AddrFrom4(a4)

		slow, err := EncryptAddr(key, addr, salt)
		if err != nil {
			t.Fatal(err)
		}
		ek.Expand(key)
		fast, ok := ek.EncryptAddrX(addr, salt)
		if !ok || !bytes.Equal(slow[:], fast[:]) {
			t.Fatalf("iter %d: EncryptAddrX mismatch: %x vs %x", i, slow, fast)
		}
		gotAddr, gotSalt, ok := ek.DecryptAddrX(fast)
		if !ok || gotAddr != addr || gotSalt != salt {
			t.Fatalf("iter %d: DecryptAddrX round trip failed: %v %x ok=%v", i, gotAddr, gotSalt, ok)
		}
		// Wrong key must fail the check the same way DecryptAddr does.
		key[0] ^= 1
		ek.Expand(key)
		if _, _, ok := ek.DecryptAddrX(fast); ok {
			t.Fatalf("iter %d: DecryptAddrX accepted a block under the wrong key", i)
		}
	}
	if _, ok := ek.EncryptAddrX(netip.MustParseAddr("::1"), [8]byte{}); ok {
		t.Fatal("EncryptAddrX accepted an IPv6 address")
	}
}

// TestCBCMACScratchMatchesCBCMAC verifies the cached-cipher MAC, whole
// and resumed from a precomputed length block, computes the identical
// function across lengths spanning multiple blocks.
func TestCBCMACScratchMatchesCBCMAC(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(99))
	var key Key
	rng.Read(key[:])
	b := NewBlock(key)
	var w MACScratch
	for n := 0; n <= 64; n++ {
		data := make([]byte, n)
		rng.Read(data)
		want := CBCMAC(key, data)
		got := b.CBCMACScratch(&w, data)
		if want != got {
			t.Fatalf("len %d: CBCMACScratch mismatch", n)
		}
		// Scratch must be reusable.
		if got2 := b.CBCMACScratch(&w, data); got2 != want {
			t.Fatalf("len %d: CBCMACScratch not stable across reuse", n)
		}
		// Resuming from the precomputed length block is the same function.
		if got3 := b.CBCMACFrom(&w, b.CBCMACPrefix(n), data); got3 != want {
			t.Fatalf("len %d: CBCMACFrom(CBCMACPrefix) mismatch", n)
		}
	}
}

func TestExpandedKeyZeroAlloc(t *testing.T) {
	var key Key
	var ek ExpandedKey
	addr := netip.MustParseAddr("10.10.0.5")
	n := testing.AllocsPerRun(200, func() {
		key[0]++
		ek.Expand(key)
		ct, _ := ek.EncryptAddrX(addr, [8]byte{1})
		if _, _, ok := ek.DecryptAddrX(ct); !ok {
			t.Fatal("round trip failed")
		}
	})
	if n != 0 {
		t.Fatalf("ExpandedKey path allocates %v per op, want 0", n)
	}
}

func BenchmarkExpandedKeyRekeyBlock(b *testing.B) {
	var key Key
	var ek ExpandedKey
	var blk [16]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		ek.Expand(key)
		ek.EncryptBlock(&blk, &blk)
	}
}
