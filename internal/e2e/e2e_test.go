package e2e

import (
	"bytes"
	"crypto/rand"
	"io"
	"testing"
	"testing/quick"

	"netneutral/internal/crypto/aesutil"
)

var testID = mustIdentity()

// SessionFromKeys builds a session directly from key material, without
// the handshake.
func SessionFromKeys(enc, mac aesutil.Key, rng io.Reader) *Session {
	return &Session{enc: enc, mac: mac, rng: rng}
}

func mustIdentity() *Identity {
	id, err := NewIdentity(rand.Reader, DefaultBits)
	if err != nil {
		panic(err)
	}
	return id
}

func TestInitiateAcceptRoundTrip(t *testing.T) {
	initiator, offer, err := Initiate(rand.Reader, testID.Public())
	if err != nil {
		t.Fatal(err)
	}
	responder, err := Accept(testID, offer)
	if err != nil {
		t.Fatal(err)
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

func TestAcceptWrongIdentity(t *testing.T) {
	other := mustIdentity()
	_, offer, err := Initiate(rand.Reader, testID.Public())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Accept(other, offer); err != ErrBadOffer {
		t.Errorf("err = %v, want ErrBadOffer", err)
	}
}

func TestOpenTamperDetected(t *testing.T) {
	s, offer, err := Initiate(rand.Reader, testID.Public())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Accept(testID, offer)
	if err != nil {
		t.Fatal(err)
	}
	box, err := s.Seal([]byte("important"))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 9, len(box) - 1} {
		mut := bytes.Clone(box)
		mut[idx] ^= 0x40
		if _, err := r.Open(mut); err != ErrBadBox {
			t.Errorf("tamper at %d: err = %v, want ErrBadBox", idx, err)
		}
	}
	if _, err := r.Open(box[:10]); err != ErrShortBox {
		t.Errorf("short box: err = %v", err)
	}
}

func TestSealRandomizesNonce(t *testing.T) {
	s := SessionFromKeys(aesutil.Key{1}, aesutil.Key{2}, rand.Reader)
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

func TestSealOverhead(t *testing.T) {
	s := SessionFromKeys(aesutil.Key{1}, aesutil.Key{2}, rand.Reader)
	msg := make([]byte, 100)
	box, err := s.Seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != len(msg)+Overhead {
		t.Errorf("overhead = %d, want %d", len(box)-len(msg), Overhead)
	}
}

func TestSessionFromKeysSymmetry(t *testing.T) {
	a := SessionFromKeys(aesutil.Key{9}, aesutil.Key{8}, rand.Reader)
	b := SessionFromKeys(aesutil.Key{9}, aesutil.Key{8}, rand.Reader)
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
	s := SessionFromKeys(aesutil.Key{3}, aesutil.Key{4}, rand.Reader)
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
	s := SessionFromKeys(aesutil.Key{5}, aesutil.Key{6}, rand.Reader)
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
	s := SessionFromKeys(aesutil.Key{1}, aesutil.Key{2}, rand.Reader)
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
	_, offer, err := Initiate(rand.Reader, testID.Public())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Accept(testID, offer); err != nil {
			b.Fatal(err)
		}
	}
}
