// Package e2e is the end-to-end encryption black box of the design.
//
// The paper uses end-to-end encryption (e.g. IPsec) to hide packet
// contents and application types, and to return key grants from a
// destination to a source under strong protection ("e.g. 1024-bit RSA
// encryption"). This package provides a functional stand-in, and is the
// one place an end-host session is keyed and a box sealed: Initiate and
// Accept carry a session seed (and a caller's extra bytes) under RSA-1024
// (crypto/rsa), and a Session seals payloads with AES-128-GCM. The
// neutralizer never sees inside these boxes; neither does a
// discriminatory ISP.
package e2e

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"netneutral/internal/crypto/aesutil"
)

// DefaultBits matches the paper's "strong" key size.
const DefaultBits = 1024

// seedLen is the session seed length carried in an offer.
const seedLen = 32

// Errors returned by this package.
var (
	ErrBadOffer  = errors.New("e2e: malformed or undecryptable session offer")
	ErrBadBox    = errors.New("e2e: sealed box failed authentication")
	ErrShortBox  = errors.New("e2e: sealed box too short")
	ErrBadPubKey = errors.New("e2e: malformed public key encoding")
)

// Identity is a long-term end-host identity (the public key published in
// DNS per §3.1).
type Identity struct {
	key *rsa.PrivateKey
}

// NewIdentity generates an identity with the given modulus size
// (DefaultBits if <= 0).
func NewIdentity(rng io.Reader, bits int) (*Identity, error) {
	if bits <= 0 {
		bits = DefaultBits
	}
	if rng == nil {
		rng = rand.Reader
	}
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("e2e: generating identity: %w", err)
	}
	return &Identity{key: key}, nil
}

// Public returns the identity's public half.
func (id *Identity) Public() PublicKey { return PublicKey{key: &id.key.PublicKey} }

// PublicKey is a peer's published key.
type PublicKey struct {
	key *rsa.PublicKey
}

// Valid reports whether the key is usable.
func (p PublicKey) Valid() bool { return p.key != nil }

// Marshal encodes the public key: 2-byte modulus length, modulus bytes,
// 4-byte exponent.
func (p PublicKey) Marshal() []byte {
	nb := p.key.N.Bytes()
	out := make([]byte, 2+len(nb)+4)
	out[0], out[1] = byte(len(nb)>>8), byte(len(nb))
	copy(out[2:], nb)
	e := p.key.E
	out[2+len(nb)] = byte(e >> 24)
	out[3+len(nb)] = byte(e >> 16)
	out[4+len(nb)] = byte(e >> 8)
	out[5+len(nb)] = byte(e)
	return out
}

// UnmarshalPublicKey reverses Marshal.
func UnmarshalPublicKey(data []byte) (PublicKey, error) {
	if len(data) < 2 {
		return PublicKey{}, ErrBadPubKey
	}
	n := int(data[0])<<8 | int(data[1])
	if n == 0 || len(data) < 2+n+4 {
		return PublicKey{}, ErrBadPubKey
	}
	N := new(big.Int).SetBytes(data[2 : 2+n])
	e := int(data[2+n])<<24 | int(data[3+n])<<16 | int(data[4+n])<<8 | int(data[5+n])
	if e < 3 {
		return PublicKey{}, ErrBadPubKey
	}
	return PublicKey{key: &rsa.PublicKey{N: N, E: e}}, nil
}

// Session is an established bidirectional sealed channel. Sessions are
// symmetric: either side may Seal or Open.
type Session struct {
	aead cipher.AEAD
	rng  io.Reader
}

// Initiate creates a session keyed by a fresh seed and the offer that
// conveys the seed, followed by extra, to the responder under its public
// key: RSA-OAEP with SHA-256, which leaves room for 30 bytes of extra at
// DefaultBits. The session draws its box nonces from rng. OAEP reads a
// fixed count of bytes from rng, where PKCS#1 v1.5 encryption reads one
// more at random, so a seeded rng gives the same offer every run — how
// crypto/rsa behaves, not what it promises; TestInitiateAcceptRoundTrip
// holds it.
func Initiate(rng io.Reader, peer PublicKey, extra []byte) (*Session, []byte, error) {
	msg := make([]byte, seedLen, seedLen+len(extra))
	if _, err := io.ReadFull(rng, msg); err != nil {
		return nil, nil, fmt.Errorf("e2e: reading seed: %w", err)
	}
	msg = append(msg, extra...)
	offer, err := rsa.EncryptOAEP(sha256.New(), rng, peer.key, msg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("e2e: encrypting offer: %w", err)
	}
	return newSession(msg[:seedLen], rng), offer, nil
}

// Accept recovers the session and the extra bytes from an offer addressed
// to id. The session draws its box nonces from rng.
func (id *Identity) Accept(offer []byte, rng io.Reader) (*Session, []byte, error) {
	msg, err := rsa.DecryptOAEP(sha256.New(), nil, id.key, offer, nil)
	if err != nil || len(msg) < seedLen {
		return nil, nil, ErrBadOffer
	}
	return newSession(msg[:seedLen], rng), msg[seedLen:], nil
}

// newSession keys AES-128-GCM with one DeriveKey of the seed.
func newSession(seed []byte, rng io.Reader) *Session {
	var root aesutil.Key
	copy(root[:], seed)
	key := aesutil.DeriveKey(root, []byte("e2e"), seed)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return &Session{aead: aead, rng: rng}
}

// Overhead is the number of bytes Seal adds to a plaintext.
const Overhead = nonceLen + 16

// nonceLen is the nonce Seal draws per box. GCM's 12-byte nonce is it
// followed by four zero bytes.
const nonceLen = 8

// Seal encrypts and authenticates plaintext:
//
//	box = nonce(8) ‖ AES-GCM(key, nonce‖0⁴, plaintext) ‖ tag(16)
//
// The nonces are drawn, not counted, so a session is good for far fewer
// than 2³² boxes.
func (s *Session) Seal(plaintext []byte) ([]byte, error) {
	var nonce [12]byte
	if _, err := io.ReadFull(s.rng, nonce[:nonceLen]); err != nil {
		return nil, fmt.Errorf("e2e: reading nonce: %w", err)
	}
	box := make([]byte, nonceLen, Overhead+len(plaintext))
	copy(box, nonce[:])
	return s.aead.Seal(box, nonce[:], plaintext, nil), nil
}

// Open verifies and decrypts a sealed box.
func (s *Session) Open(box []byte) ([]byte, error) {
	if len(box) < Overhead {
		return nil, ErrShortBox
	}
	var nonce [12]byte
	copy(nonce[:], box[:nonceLen])
	pt, err := s.aead.Open(nil, nonce[:], box[nonceLen:], nil)
	if err != nil {
		return nil, ErrBadBox
	}
	return pt, nil
}
