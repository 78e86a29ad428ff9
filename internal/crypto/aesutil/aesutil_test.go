package aesutil

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	k1 = Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	k2 = Key{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
)

func TestCBCMACDeterministic(t *testing.T) {
	m1 := CBCMAC(k1, []byte("hello"))
	m2 := CBCMAC(k1, []byte("hello"))
	if m1 != m2 {
		t.Error("CBC-MAC must be deterministic")
	}
}

func TestCBCMACKeyAndDataSensitivity(t *testing.T) {
	base := CBCMAC(k1, []byte("hello"))
	if CBCMAC(k2, []byte("hello")) == base {
		t.Error("different key, same MAC")
	}
	if CBCMAC(k1, []byte("hellp")) == base {
		t.Error("different data, same MAC")
	}
	if CBCMAC(k1, []byte("hell")) == base {
		t.Error("prefix data, same MAC")
	}
}

func TestCBCMACLengthFraming(t *testing.T) {
	// Same bytes split differently must not collide thanks to the length
	// prefix: MAC("ab") vs MAC("ab\x00...") padded block ambiguity.
	a := CBCMAC(k1, []byte{0xab})
	b := CBCMAC(k1, append([]byte{0xab}, make([]byte, 15)...))
	if a == b {
		t.Error("padding ambiguity: single byte vs zero-extended block collide")
	}
	if CBCMAC(k1, nil) == CBCMAC(k1, make([]byte, 16)) {
		t.Error("empty vs one zero block collide")
	}
}

func TestCBCMACMultiBlock(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789abcdef"), 4)
	m := CBCMAC(k1, long)
	// Flip a bit in the middle block; MAC must change.
	long[20] ^= 0x80
	if CBCMAC(k1, long) == m {
		t.Error("middle-block bit flip not reflected in MAC")
	}
}

func TestDeriveKeyFraming(t *testing.T) {
	// ("ab","c") and ("a","bc") must differ (length framing).
	d1 := DeriveKey(k1, []byte("ab"), []byte("c"))
	d2 := DeriveKey(k1, []byte("a"), []byte("bc"))
	if d1 == d2 {
		t.Error("part-boundary ambiguity in DeriveKey")
	}
	// Deterministic.
	if DeriveKey(k1, []byte("ab"), []byte("c")) != d1 {
		t.Error("DeriveKey not deterministic")
	}
}

func TestAddrBlockRoundTrip(t *testing.T) {
	a := netip.MustParseAddr("203.0.113.77")
	salt := [8]byte{9, 8, 7, 6, 5, 4, 3, 2}
	ct, err := EncryptAddr(k1, a, salt)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSalt, err := DecryptAddr(k1, ct)
	if err != nil {
		t.Fatalf("DecryptAddr: %v", err)
	}
	if got != a || gotSalt != salt {
		t.Errorf("roundtrip = %v %v", got, gotSalt)
	}
}

func TestAddrBlockWrongKey(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	ct, err := EncryptAddr(k1, a, [8]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecryptAddr(k2, ct); err != ErrCheckFailed {
		t.Errorf("wrong key: err = %v, want ErrCheckFailed", err)
	}
}

func TestAddrBlockCorruption(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	ct, err := EncryptAddr(k1, a, [8]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	ct[0] ^= 0x01
	if _, _, err := DecryptAddr(k1, ct); err != ErrCheckFailed {
		t.Errorf("corrupted block: err = %v, want ErrCheckFailed", err)
	}
}

func TestAddrBlockSaltVariesCiphertext(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	c1, err := EncryptAddr(k1, a, [8]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := EncryptAddr(k1, a, [8]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("same address with different salts must yield different ciphertexts")
	}
}

func TestEncryptAddrRejectsNonIPv4(t *testing.T) {
	if _, err := EncryptAddr(k1, netip.MustParseAddr("::1"), [8]byte{}); err == nil {
		t.Error("IPv6 address should be rejected")
	}
	if _, err := EncryptAddr(k1, netip.Addr{}, [8]byte{}); err == nil {
		t.Error("zero address should be rejected")
	}
}

func TestAddrBlockProperty(t *testing.T) {
	f := func(key [16]byte, raw [4]byte, salt [8]byte) bool {
		a := netip.AddrFrom4(raw)
		ct, err := EncryptAddr(Key(key), a, salt)
		if err != nil {
			return false
		}
		got, gotSalt, err := DecryptAddr(Key(key), ct)
		return err == nil && got == a && gotSalt == salt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(k1, k1) {
		t.Error("Equal(k1,k1) = false")
	}
	if Equal(k1, k2) {
		t.Error("Equal(k1,k2) = true")
	}
}

func BenchmarkCBCMAC(b *testing.B) {
	data := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CBCMAC(k1, data)
	}
}

func BenchmarkAddrEncrypt(b *testing.B) {
	a := netip.MustParseAddr("10.0.0.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncryptAddr(k1, a, [8]byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddrDecrypt(b *testing.B) {
	a := netip.MustParseAddr("10.0.0.1")
	ct, err := EncryptAddr(k1, a, [8]byte{7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecryptAddr(k1, ct); err != nil {
			b.Fatal(err)
		}
	}
}
