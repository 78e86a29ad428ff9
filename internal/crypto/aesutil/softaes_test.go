package aesutil

import (
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

// TestAddrBlockXMatchesSlowPath verifies that the three forms of the
// address-block operation — software (ExpandedKey, a cache miss's),
// cached crypto/aes cipher (Block, a cache hit's) and package-level —
// produce the block this test lays out and encrypts with crypto/aes
// itself, open it to the same (address, salt), and all refuse it under a
// wrong key; and that all refuse to seal a non-IPv4 address.
func TestAddrBlockXMatchesSlowPath(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(7))
	var ek ExpandedKey
	var w AddrScratch
	for i := 0; i < 10000; i++ {
		var key Key
		var salt [8]byte
		var a4 [4]byte
		rng.Read(key[:])
		rng.Read(salt[:])
		rng.Read(a4[:])
		addr := netip.AddrFrom4(a4)

		std, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want AddrBlock
		std.Encrypt(want[:], append(append(a4[:], salt[:]...), 'n', 'e', 'u', 't'))

		slow, err := EncryptAddr(key, addr, salt)
		ek.Expand(key)
		soft, okX := ek.EncryptAddrX(addr, salt)
		blk := NewBlock(key)
		hard, okS := blk.EncryptAddrS(&w, addr, salt)
		if err != nil || !okX || !okS || slow != want || soft != want || hard != want {
			t.Fatalf("iter %d: sealed %x (package), %x (software), %x (block), want %x", i, slow, soft, hard, want)
		}
		a1, s1, err := DecryptAddr(key, want)
		a2, s2, ok2 := ek.DecryptAddrX(want)
		a3, s3, ok3 := blk.DecryptAddrS(&w, want)
		if err != nil || !ok2 || !ok3 || a1 != addr || a2 != addr || a3 != addr || s1 != salt || s2 != salt || s3 != salt {
			t.Fatalf("iter %d: opened to %v/%x, %v/%x, %v/%x; want %v/%x", i, a1, s1, a2, s2, a3, s3, addr, salt)
		}
		key[rng.Intn(KeySize)] ^= 1 << rng.Intn(8)
		ek.Expand(key)
		_, _, err = DecryptAddr(key, want)
		_, _, ok2 = ek.DecryptAddrX(want)
		_, _, ok3 = NewBlock(key).DecryptAddrS(&w, want)
		if err == nil || ok2 || ok3 {
			t.Fatalf("iter %d: a block opened under the wrong key: %v %v %v", i, err, ok2, ok3)
		}
	}
	v6 := netip.MustParseAddr("::1")
	_, err := EncryptAddr(Key{}, v6, [8]byte{})
	_, okX := ek.EncryptAddrX(v6, [8]byte{})
	_, okS := NewBlock(Key{}).EncryptAddrS(&w, v6, [8]byte{})
	if err == nil || okX || okS {
		t.Fatalf("an IPv6 address was sealed: %v %v %v", err, okX, okS)
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
	// The other side of the session cache: a keyed Block with its scratch.
	blk, w := NewBlock(key), new(AddrScratch)
	n = testing.AllocsPerRun(200, func() {
		ct, _ := blk.EncryptAddrS(w, addr, [8]byte{1})
		if _, _, ok := blk.DecryptAddrS(w, ct); !ok {
			t.Fatal("round trip failed")
		}
	})
	if n != 0 {
		t.Fatalf("Block path allocates %v per op, want 0", n)
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
