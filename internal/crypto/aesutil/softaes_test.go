package aesutil

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	mathrand "math/rand"
	"net/netip"
	"testing"
)

// aesBody is one implementation of ExpandedKey's three operations.
type aesBody struct {
	name     string
	expand   func(*ExpandedKey, Key)
	enc, dec func(e *ExpandedKey, dst, src *[16]byte)
}

// aesBodies lists what ExpandedKey's exported methods run in this process
// and, where that is the AES instructions, the tables they fall back to —
// so on amd64 both bodies are checked by one `go test`, and under
// `-tags purego` (or off amd64) the tables are what "dispatch" is.
func aesBodies() []aesBody {
	b := []aesBody{{"dispatch", (*ExpandedKey).Expand, (*ExpandedKey).EncryptBlock, (*ExpandedKey).DecryptBlock}}
	if hasAESNI {
		b = append(b, aesBody{"tables", (*ExpandedKey).expandSoft, (*ExpandedKey).encryptSoft, (*ExpandedKey).decryptSoft})
	}
	return b
}

// checkAgainstStdlib holds one body to crypto/aes on one key and block, in
// both directions, on a schedule ek that earlier calls have keyed and
// used: Expand must forget the previous key's lazily derived decryption
// schedule. decFirst decrypts straight after the re-key; dst == src is
// exercised every time.
func checkAgainstStdlib(t testing.TB, b *aesBody, ek *ExpandedKey, key Key, blk [16]byte, decFirst bool) {
	ref, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	var ct, pt [16]byte
	ref.Encrypt(ct[:], blk[:])
	ref.Decrypt(pt[:], blk[:])

	b.expand(ek, key)
	var got, inPlace [16]byte
	if decFirst {
		if b.dec(ek, &got, &blk); got != pt {
			t.Fatalf("%s: decrypt after re-key\nkey  %x\nct   %x\nwant %x\ngot  %x", b.name, key, blk, pt, got)
		}
	}
	if b.enc(ek, &got, &blk); got != ct {
		t.Fatalf("%s: encrypt\nkey  %x\npt   %x\nwant %x\ngot  %x", b.name, key, blk, ct, got)
	}
	if b.dec(ek, &got, &blk); got != pt {
		t.Fatalf("%s: decrypt\nkey  %x\nct   %x\nwant %x\ngot  %x", b.name, key, blk, pt, got)
	}
	inPlace = blk
	b.enc(ek, &inPlace, &inPlace)
	if b.dec(ek, &got, &inPlace); inPlace != ct || got != blk {
		t.Fatalf("%s: dst == src encrypt gave %x (want %x), which opens to %x (want %x)", b.name, inPlace, ct, got, blk)
	}
	if b.dec(ek, &inPlace, &inPlace); inPlace != blk {
		t.Fatalf("%s: dst == src decrypt gave %x, want %x", b.name, inPlace, blk)
	}
}

// TestExpandedKeyMatchesStdlib is the three-way differential: the body
// ExpandedKey dispatches to (the AES instructions, on amd64), the T-table
// body, and crypto/aes, over random keys and blocks, each body on one
// long-lived schedule re-keyed every iteration — the data path's usage.
func TestExpandedKeyMatchesStdlib(t *testing.T) {
	n := 1_000_000
	if testing.Short() || raceEnabled {
		n = 20_000
	}
	t.Logf("hasAESNI=%v, %d keys", hasAESNI, n)
	rng := mathrand.New(mathrand.NewSource(42))
	bodies := aesBodies()
	eks := make([]ExpandedKey, len(bodies))
	for i := 0; i < n; i++ {
		var key Key
		var blk [16]byte
		rng.Read(key[:])
		rng.Read(blk[:])
		for j := range bodies {
			checkAgainstStdlib(t, &bodies[j], &eks[j], key, blk, i%2 == 0)
		}
	}
}

// FuzzExpandedKey lets the fuzzer pick the keys and blocks of the same
// check, two per input so the second runs on a schedule the first keyed.
func FuzzExpandedKey(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add([]byte("\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34"))
	f.Fuzz(func(t *testing.T, in []byte) {
		var raw [64]byte
		copy(raw[:], in)
		for _, b := range aesBodies() {
			var ek ExpandedKey
			checkAgainstStdlib(t, &b, &ek, Key(raw[0:16]), [16]byte(raw[16:32]), raw[0]&1 == 0)
			checkAgainstStdlib(t, &b, &ek, Key(raw[32:48]), [16]byte(raw[48:64]), true)
		}
	})
}

// TestExpandedKeyFIPSVector checks the FIPS-197 Appendix B and C.1
// examples on every body; on the tables they also pin the S-box that
// init derives by walking the powers of the field's generator.
func TestExpandedKeyFIPSVector(t *testing.T) {
	unhex := func(s string) (b [16]byte) {
		if _, err := hex.Decode(b[:], []byte(s)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, v := range []struct{ name, key, pt, ct string }{
		{"B", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
		{"C.1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
	} {
		key, pt, ct := Key(unhex(v.key)), unhex(v.pt), unhex(v.ct)
		for _, b := range aesBodies() {
			var ek ExpandedKey
			var got [16]byte
			b.expand(&ek, key)
			if b.enc(&ek, &got, &pt); got != ct {
				t.Errorf("FIPS-197 %s, %s: encrypt got %x want %x", v.name, b.name, got, ct)
			}
			if b.dec(&ek, &got, &ct); got != pt {
				t.Errorf("FIPS-197 %s, %s: decrypt got %x want %x", v.name, b.name, got, pt)
			}
		}
	}
}

// TestAddrBlockXMatchesSlowPath verifies that both forms of the
// address-block operation — on a kept schedule (ExpandedKey, the data
// path's) and package-level (the end hosts') — produce the block this
// test lays out and encrypts with crypto/aes itself, open it to the same
// (address, salt), and refuse it under a wrong key; and that both refuse
// to seal a non-IPv4 address.
func TestAddrBlockXMatchesSlowPath(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(7))
	var ek ExpandedKey
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
		kept, okX := ek.EncryptAddrX(addr, salt)
		if err != nil || !okX || slow != want || kept != want {
			t.Fatalf("iter %d: sealed %x (package), %x (schedule), want %x", i, slow, kept, want)
		}
		a1, s1, err := DecryptAddr(key, want)
		a2, s2, ok2 := ek.DecryptAddrX(want)
		if err != nil || !ok2 || a1 != addr || a2 != addr || s1 != salt || s2 != salt {
			t.Fatalf("iter %d: opened to %v/%x, %v/%x; want %v/%x", i, a1, s1, a2, s2, addr, salt)
		}
		key[rng.Intn(KeySize)] ^= 1 << rng.Intn(8)
		ek.Expand(key)
		_, _, err = DecryptAddr(key, want)
		_, _, ok2 = ek.DecryptAddrX(want)
		if err == nil || ok2 {
			t.Fatalf("iter %d: a block opened under the wrong key: %v %v", i, err, ok2)
		}
	}
	v6 := netip.MustParseAddr("::1")
	_, err := EncryptAddr(Key{}, v6, [8]byte{})
	_, okX := ek.EncryptAddrX(v6, [8]byte{})
	if err == nil || okX {
		t.Fatalf("an IPv6 address was sealed: %v %v", err, okX)
	}
}

// refCBCMAC is CBCMAC written a second time on crypto/aes's CBC mode:
// the length block, then data zero-padded to whole blocks, encrypted with a
// zero IV; the MAC is the last ciphertext block.
func refCBCMAC(t testing.TB, key Key, data []byte) (mac Key) {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	msg := binary.BigEndian.AppendUint64(nil, uint64(len(data)))
	msg = append(append(msg, make([]byte, 8)...), data...)
	msg = append(msg, make([]byte, (BlockSize-len(msg)%BlockSize)%BlockSize)...)
	cipher.NewCBCEncrypter(c, make([]byte, BlockSize)).CryptBlocks(msg, msg)
	copy(mac[:], msg[len(msg)-BlockSize:])
	return mac
}

// TestCBCMACMatchesReference holds CBCMAC, and DeriveKey's framing over
// it, to refCBCMAC on random keys and messages of 0 to 80 bytes — the
// lengths from empty through five whole blocks, each boundary included.
func TestCBCMACMatchesReference(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(99))
	for i := 0; i < 2000; i++ {
		var key Key
		rng.Read(key[:])
		data := make([]byte, i%81)
		rng.Read(data)
		if got, want := CBCMAC(key, data), refCBCMAC(t, key, data); got != want {
			t.Fatalf("len %d, key %x: CBCMAC %x, want %x", len(data), key, got, want)
		}
		cut := rng.Intn(len(data) + 1)
		framed := binary.BigEndian.AppendUint16(nil, uint16(cut))
		framed = append(framed, data[:cut]...)
		framed = binary.BigEndian.AppendUint16(framed, uint16(len(data)-cut))
		framed = append(framed, data[cut:]...)
		if got, want := DeriveKey(key, data[:cut], data[cut:]), refCBCMAC(t, key, framed); got != want {
			t.Fatalf("parts of %d and %d bytes: DeriveKey %x, want %x", cut, len(data)-cut, got, want)
		}
	}
}

// TestExpandedKeyZeroAlloc: keying a schedule and running a block on it
// allocates nothing, whether the schedule is kept (a Scratch's) or lives
// on the stack of one call (the package-level forms the end hosts and
// CBCMAC use).
func TestExpandedKeyZeroAlloc(t *testing.T) {
	var key Key
	var kept ExpandedKey
	addr := netip.MustParseAddr("10.10.0.5")
	addrBytes := addr.As4()
	for name, fn := range map[string]func(){
		"kept schedule": func() {
			kept.Expand(key)
			ct, _ := kept.EncryptAddrX(addr, [8]byte{1})
			if _, _, ok := kept.DecryptAddrX(ct); !ok {
				t.Fatal("round trip failed")
			}
		},
		"stack schedule": func() {
			var ek ExpandedKey
			ek.Expand(key)
			ct, _ := ek.EncryptAddrX(addr, [8]byte{1})
			ek.Expand(key)
			if _, _, ok := ek.DecryptAddrX(ct); !ok {
				t.Fatal("round trip failed")
			}
		},
		"CBCMAC": func() {
			if CBCMAC(key, addrBytes[:]) == (Key{}) {
				t.Fatal("zero MAC")
			}
		},
		"EncryptAddr, DecryptAddr": func() {
			ct, err := EncryptAddr(key, addr, [8]byte{1})
			if _, _, err2 := DecryptAddr(key, ct); err != nil || err2 != nil {
				t.Fatal("round trip failed")
			}
		},
	} {
		n := testing.AllocsPerRun(200, func() {
			key[0]++
			fn()
		})
		if n != 0 {
			t.Errorf("%s: %v allocations per op, want 0", name, n)
		}
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
