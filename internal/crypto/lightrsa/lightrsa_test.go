package lightrsa

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// testKey is generated once; key generation dominates test time otherwise.
var testKey = mustGenerate(DefaultBits)

func mustGenerate(bits int) *PrivateKey {
	k, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		panic(err)
	}
	return k
}

func TestGenerateKeyProperties(t *testing.T) {
	k := testKey
	if k.N.BitLen() != DefaultBits {
		t.Errorf("modulus bits = %d, want %d", k.N.BitLen(), DefaultBits)
	}
	// N = P*Q
	if new(big.Int).Mul(k.P, k.Q).Cmp(k.N) != 0 {
		t.Error("N != P*Q")
	}
	// e*d ≡ 1 mod φ(N)
	phi := new(big.Int).Mul(
		new(big.Int).Sub(k.P, big.NewInt(1)),
		new(big.Int).Sub(k.Q, big.NewInt(1)),
	)
	ed := new(big.Int).Mul(big.NewInt(PublicExponent), k.D)
	if new(big.Int).Mod(ed, phi).Cmp(big.NewInt(1)) != 0 {
		t.Error("e*d != 1 mod phi")
	}
}

func TestGenerateKeyTooSmall(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err != ErrKeyTooSmall {
		t.Errorf("err = %v, want ErrKeyTooSmall", err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	msg := []byte("nonce+Ks = 24 bytes max.")
	ct, err := testKey.PublicKey.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if len(ct) != testKey.Size() {
		t.Errorf("ciphertext length = %d, want %d", len(ct), testKey.Size())
	}
	pt, err := testKey.Decrypt(ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("roundtrip mismatch: %q", pt)
	}
}

func TestEncryptRandomized(t *testing.T) {
	msg := []byte("same message")
	c1, err := testKey.PublicKey.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := testKey.PublicKey.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1, c2) {
		t.Error("padding must randomize ciphertexts")
	}
}

func TestEncryptTooLong(t *testing.T) {
	long := make([]byte, testKey.Size()-10) // > size-11
	if _, err := testKey.PublicKey.Encrypt(rand.Reader, long); err != ErrMessageTooLong {
		t.Errorf("err = %v, want ErrMessageTooLong", err)
	}
}

func TestDecryptGarbage(t *testing.T) {
	garbage := make([]byte, testKey.Size())
	for i := range garbage {
		garbage[i] = byte(i * 7)
	}
	garbage[0] = 0 // keep below N
	if _, err := testKey.Decrypt(garbage); err == nil {
		t.Error("decrypting garbage should fail padding check")
	}
	tooBig := new(big.Int).Add(testKey.N, big.NewInt(1)).Bytes()
	if _, err := testKey.Decrypt(tooBig); err != ErrDecryption {
		t.Errorf("ct >= N: err = %v, want ErrDecryption", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(msg []byte) bool {
		if len(msg) > testKey.Size()-11 {
			msg = msg[:testKey.Size()-11]
		}
		ct, err := testKey.PublicKey.Encrypt(rand.Reader, msg)
		if err != nil {
			return false
		}
		pt, err := testKey.Decrypt(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMarshalUnmarshalPublicKey(t *testing.T) {
	enc := testKey.PublicKey.Marshal()
	pk, n, err := UnmarshalPublicKey(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d bytes, want %d", n, len(enc))
	}
	if pk.N.Cmp(testKey.N) != 0 {
		t.Error("modulus mismatch after roundtrip")
	}
	// Embedded in a larger buffer.
	buf := append(enc, []byte("trailing")...)
	if _, n2, err := UnmarshalPublicKey(buf); err != nil || n2 != len(enc) {
		t.Errorf("embedded unmarshal: n=%d err=%v", n2, err)
	}
}

func TestUnmarshalPublicKeyErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		{0x00, 0x00},             // zero length
		{0x00, 0x10, 0x01, 0x02}, // truncated modulus
	}
	for i, c := range cases {
		if _, _, err := UnmarshalPublicKey(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	// Modulus too small.
	small := append([]byte{0x00, 0x02}, 0xff, 0xff)
	if _, _, err := UnmarshalPublicKey(small); err != ErrKeyTooSmall {
		t.Errorf("small modulus: err = %v", err)
	}
	// The 128-bit floor counts bits, not bytes: leading zero octets are
	// not modulus, and a 127-bit value in 17 octets is refused.
	at := func(top byte) []byte { return append([]byte{0x00, 0x11, 0x00, top}, make([]byte, 15)...) }
	if _, _, err := UnmarshalPublicKey(at(0x7f)); err != ErrKeyTooSmall {
		t.Errorf("127-bit modulus: err = %v", err)
	}
	if k, n, err := UnmarshalPublicKey(at(0x80)); err != nil || n != 19 || k.N.BitLen() != 128 {
		t.Errorf("128-bit modulus: %v, %d bytes, err %v", k, n, err)
	}
	refused := append(cases, small, at(0x7f))
	if allocs := testing.AllocsPerRun(100, func() {
		for _, c := range refused {
			_, _, _ = UnmarshalPublicKey(c)
		}
	}); allocs != 0 {
		t.Errorf("refusals allocate %v times", allocs)
	}
}

func TestEncryptRawBounds(t *testing.T) {
	block := make([]byte, testKey.Size())
	for i := range block {
		block[i] = 0xff
	}
	if _, err := testKey.PublicKey.EncryptRaw(block); err != ErrMessageTooLong {
		t.Errorf("block >= N: err = %v, want ErrMessageTooLong", err)
	}
}

func TestOneTimeKeysDiffer(t *testing.T) {
	k2 := mustGenerate(DefaultBits)
	if k2.N.Cmp(testKey.N) == 0 {
		t.Error("two generated keys share a modulus")
	}
}

func BenchmarkEncrypt512(b *testing.B) {
	msg := make([]byte, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := testKey.PublicKey.Encrypt(rand.Reader, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt512(b *testing.B) {
	msg := make([]byte, 24)
	ct, err := testKey.PublicKey.Encrypt(rand.Reader, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testKey.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateKey512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKey(rand.Reader, DefaultBits); err != nil {
			b.Fatal(err)
		}
	}
}
