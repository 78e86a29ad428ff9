package core

import (
	"bytes"
	"crypto/aes"
	"testing"

	"netneutral/internal/crypto/aesutil"
)

// TestFastKeyErasureMatchesReference pins the generator's construction
// against crypto/aes, from a known key: each refill is AES-128-CTR over
// counters 0…31 under the current key, whose block 0 becomes the next key
// and whose blocks 1…31 are the output, in order.
func TestFastKeyErasureMatchesReference(t *testing.T) {
	var g fkeRand
	key := aesutil.Key{0x2b, 0x7e, 0x15, 0x16}
	g.ek.Expand(key)
	g.next = len(g.buf)
	got := make([]byte, 3*496+5)
	if _, err := g.Read(got[:7]); err != nil { // odd-sized draws cross block and refill edges
		t.Fatal(err)
	}
	if _, err := g.Read(got[7:]); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for len(want) < len(got) {
		c, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			blk := [16]byte{15: byte(i)}
			c.Encrypt(blk[:], blk[:])
			if i == 0 {
				key = aesutil.Key(blk)
			} else {
				want = append(want, blk[:]...)
			}
		}
	}
	if !bytes.Equal(got, want[:len(got)]) {
		t.Fatalf("generator output differs from AES-CTR with key erasure\n got %x\nwant %x", got[:64], want[:64])
	}
}

// TestFastKeyErasureForgets: what a generator has handed out is gone from
// it — every byte drawn reads zero in the buffer, the block that became the
// key too — and a refill leaves a different key behind. Two scratches,
// each seeded from crypto/rand, draw different streams, and so give one
// return packet different salts.
func TestFastKeyErasureForgets(t *testing.T) {
	var g fkeRand
	var one [1]byte
	g.Read(one[:])
	key := g.ek
	if !bytes.Equal(g.buf[:g.next], make([]byte, g.next)) || bytes.Equal(g.buf[g.next:], make([]byte, len(g.buf)-g.next)) {
		t.Fatalf("after one byte: %d handed out, buffer %x", g.next, g.buf[:g.next+4])
	}
	g.Read(make([]byte, len(g.buf)-g.next)) // drain; the next byte refills
	if !bytes.Equal(g.buf[:], make([]byte, len(g.buf))) {
		t.Fatal("a drained buffer still holds output")
	}
	g.Read(one[:])
	if g.ek == key {
		t.Fatal("a refill kept the key")
	}
	if !bytes.Equal(g.buf[:g.next], make([]byte, g.next)) {
		t.Fatalf("after a refill: %d handed out, buffer %x", g.next, g.buf[:g.next+4])
	}

	var a, b fkeRand
	da, db := make([]byte, 64), make([]byte, 64)
	a.Read(da)
	b.Read(db)
	if bytes.Equal(da, db) {
		t.Fatal("two generators drew the same stream")
	}
	n := newTestNeutralizer(t, func(c *Config) { c.Rand = nil })
	pkt := mkFlow(t, n.cfg.Schedule, 0, 1).ret(t, 0)
	outA, errA := process(n, pkt)
	outB, errB := process(n, pkt)
	if errA != nil || errB != nil || bytes.Equal(outA[0].Pkt, outB[0].Pkt) {
		t.Fatalf("two scratches salted one return packet alike (%v, %v)", errA, errB)
	}
}
