package e2e

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	mathrand "math/rand"
	"testing"
	"testing/quick"

	"netneutral/internal/crypto/aesutil"
)

var testID = mustIdentity()

// testSession is a session on a seed of 32 copies of b, without the
// handshake.
func testSession(b byte) *Session {
	return newSession(bytes.Repeat([]byte{b}, seedLen), rand.Reader)
}

func mustIdentity() *Identity {
	id, err := NewIdentity(rand.Reader, DefaultBits)
	if err != nil {
		panic(err)
	}
	return id
}

// TestInitiateAcceptRoundTrip: the seed and the extra bytes after it
// reach the responder, up to the room OAEP-SHA-256 leaves in a
// DefaultBits key (128 - 2·32 - 2 - 32 = 30), and both sessions seal for
// each other. A seeded offer is the same every time.
func TestInitiateAcceptRoundTrip(t *testing.T) {
	for _, n := range []int{0, 28, 30} {
		want := bytes.Repeat([]byte{byte(n)}, n)
		initiator, offer, err := Initiate(rand.Reader, testID.Public(), want)
		if err != nil {
			t.Fatalf("%d bytes of extra: %v", n, err)
		}
		responder, extra, err := testID.Accept(offer, rand.Reader)
		if err != nil || !bytes.Equal(extra, want) {
			t.Fatalf("Accept: extra %x, %v; want %x", extra, err, want)
		}
		msg := []byte("grant: nonce' + Ks' + payload")
		box, err := initiator.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := responder.Open(box)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("roundtrip = %q", got)
		}
		// Symmetric: responder seals, initiator opens.
		box2, err := responder.Seal([]byte("reply"))
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := initiator.Open(box2); err != nil || string(pt) != "reply" {
			t.Errorf("reverse direction: %q %v", pt, err)
		}
	}
	if _, _, err := Initiate(rand.Reader, testID.Public(), make([]byte, 31)); err == nil {
		t.Error("a 31-byte extra was accepted")
	}
	for i := 0; i < 8; i++ {
		_, a, errA := Initiate(mathrand.New(mathrand.NewSource(1)), testID.Public(), []byte("x"))
		_, b, errB := Initiate(mathrand.New(mathrand.NewSource(1)), testID.Public(), []byte("x"))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("two offers from one seed differ (%v, %v)", errA, errB)
		}
	}
}

func TestAcceptWrongIdentity(t *testing.T) {
	other := mustIdentity()
	_, offer, err := Initiate(rand.Reader, testID.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.Accept(offer, rand.Reader); err != ErrBadOffer {
		t.Errorf("err = %v, want ErrBadOffer", err)
	}
	// An offer that decrypts to less than a seed is no offer.
	short, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, testID.Public().key, make([]byte, seedLen-1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := testID.Accept(short, rand.Reader); err != ErrBadOffer {
		t.Errorf("short offer: err = %v, want ErrBadOffer", err)
	}
}

func TestOpenTamperDetected(t *testing.T) {
	s, offer, err := Initiate(rand.Reader, testID.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := testID.Accept(offer, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	box, err := s.Seal([]byte("important"))
	if err != nil {
		t.Fatal(err)
	}
	for idx := range box {
		mut := bytes.Clone(box)
		mut[idx] ^= 0x40
		if _, err := r.Open(mut); err != ErrBadBox {
			t.Errorf("tamper at %d: err = %v, want ErrBadBox", idx, err)
		}
	}
	if _, err := r.Open(box[:Overhead-1]); err != ErrShortBox {
		t.Errorf("short box: err = %v", err)
	}
}

func TestSealRandomizesNonce(t *testing.T) {
	s := testSession(1)
	b1, err := s.Seal([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Seal([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Error("two seals of the same message must differ")
	}
}

// TestSealOverhead pins the box: nonce(8) followed by crypto/cipher's GCM
// Seal under one DeriveKey of the seed, with nonce ‖ 0⁴ as GCM's nonce,
// Overhead bytes longer than the plaintext; and Seal reads exactly the 8
// nonce bytes from its reader.
func TestSealOverhead(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, seedLen)
	draws := bytes.NewReader(bytes.Repeat([]byte{0xa5, 0x5a}, 8))
	s := newSession(seed, draws)
	msg := []byte("grant: nonce' + Ks'")
	box, err := s.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != len(msg)+Overhead {
		t.Errorf("overhead = %d, want %d", len(box)-len(msg), Overhead)
	}
	if used := 16 - draws.Len(); used != 8 {
		t.Errorf("Seal read %d bytes of its reader, want 8", used)
	}
	var root aesutil.Key
	copy(root[:], seed)
	key := aesutil.DeriveKey(root, []byte("e2e"), seed)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	nonce := append(bytes.Clone(box[:8]), 0, 0, 0, 0)
	if want := gcm.Seal(nil, nonce, msg, nil); !bytes.Equal(box[8:], want) {
		t.Errorf("box[8:] = %x, want %x", box[8:], want)
	}
	if !bytes.Equal(box[:8], []byte{0xa5, 0x5a, 0xa5, 0x5a, 0xa5, 0x5a, 0xa5, 0x5a}) {
		t.Errorf("box nonce = %x, want the reader's first 8 bytes", box[:8])
	}
}

func TestSessionSymmetry(t *testing.T) {
	a, b := testSession(9), testSession(9)
	box, err := a.Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := b.Open(box); err != nil || string(pt) != "x" {
		t.Errorf("shared-key sessions disagree: %q %v", pt, err)
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	enc := testID.Public().Marshal()
	pk, err := UnmarshalPublicKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pk.Marshal(), enc) {
		t.Error("public key mismatch after roundtrip")
	}
	if !pk.Valid() {
		t.Error("unmarshaled key reports invalid")
	}
}

func TestUnmarshalPublicKeyErrors(t *testing.T) {
	cases := [][]byte{nil, {1}, {0, 0}, {0, 4, 1, 2, 3, 4}, {0, 1, 5, 0, 0, 0, 1}}
	for i, c := range cases {
		if _, err := UnmarshalPublicKey(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSealOpenProperty(t *testing.T) {
	s := testSession(3)
	f := func(msg []byte) bool {
		box, err := s.Seal(msg)
		if err != nil {
			return false
		}
		pt, err := s.Open(box)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOpenEmptyPlaintext(t *testing.T) {
	s := testSession(5)
	box, err := s.Seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s.Open(box)
	if err != nil || len(pt) != 0 {
		t.Errorf("empty plaintext roundtrip: %v %v", pt, err)
	}
}

func BenchmarkSeal1K(b *testing.B) {
	s := testSession(1)
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccept(b *testing.B) {
	_, offer, err := Initiate(rand.Reader, testID.Public(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := testID.Accept(offer, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
