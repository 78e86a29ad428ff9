package core_test

import (
	"bytes"
	"encoding/binary"
	mathrand "math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
)

// checkAgainstOracle runs pkt through n on scratch s and through o, both
// from the start of the entropy stream rng (which must be n's Config.Rand
// and o.rand), and requires the same outcome class and, when served, the
// same bytes; and that ProcessScratch left pkt as it found it. It returns
// what n returned.
func checkAgainstOracle(t testing.TB, o *oracle, n *core.Neutralizer, s *core.Scratch, rng *mathrand.Rand, pkt []byte) ([]byte, error) {
	t.Helper()
	saved := bytes.Clone(pkt)
	rng.Seed(1)
	s.Reset()
	outs, err := n.ProcessScratch(s, pkt)
	if !bytes.Equal(pkt, saved) {
		t.Fatalf("ProcessScratch wrote to its input\n now %x\n was %x", pkt, saved)
	}
	var got []byte
	var hint netip.Addr
	if err == nil {
		if len(outs) != 1 {
			t.Fatalf("%d outputs for a served packet", len(outs))
		}
		got = outs[0].Pkt
		hint = addr4(got[12:])
	}
	rng.Seed(1)
	o.hinted = false
	want, oerr := o.process(pkt, hint)
	if classOf(err) != classOf(oerr) {
		t.Fatalf("neutralizer: %v; oracle: %v\ninput %x", err, oerr, pkt)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from the oracle's\n got %x\nwant %x\ninput %x", got, want, pkt)
	}
	if o.hinted {
		if c, p, ok := n.DynFlowOf(hint); !ok || c != addr4(pkt[12:]) || p != addr4(got[16:]) {
			t.Fatalf("dynamic address %v maps to (%v, %v, %v), not to the flow served", hint, c, p, ok)
		}
	}
	return got, err
}

// TestProcessScratchMatchesOracle drives a core-churn-shaped mix — forward
// (± key request), return (anonymized, opted out, dynamic address), key
// fetch, truncated, stale epoch, forged block, non-customer destination;
// payloads of 64, 512 and 1400 bytes; sessions keyed under both epochs of
// the window — through the neutralizer and the oracle. Every packet goes
// three times through a scratch kept for the whole test (so the third
// sighting is served from the session cache) and once through a fresh
// one; all four must produce the oracle's bytes or its refusal.
func TestProcessScratchMatchesOracle(t *testing.T) {
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	now := start.Add(150 * time.Minute) // epoch 2: the window has both edges
	rng := mathrand.New(mathrand.NewSource(1))
	custNet := netip.MustParsePrefix("10.10.0.0/16")
	o := &oracle{
		sched: keys.NewSchedule(aesutil.Key{7}, start, time.Hour), start: start, epochLen: time.Hour, now: now,
		anycast: netip.MustParseAddr("10.200.0.1"), customer: custNet.Contains, rand: rng,
		dynPool: netip.MustParsePrefix("11.0.0.0/8"),
	}
	n, err := core.New(core.Config{
		Schedule: o.sched, Anycast: o.anycast, IsCustomer: o.customer,
		Clock: func() time.Time { return now }, Rand: rng, DynAddrPool: o.dynPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	warm, gen := core.NewScratch(), mathrand.New(mathrand.NewSource(2))
	classes := []string{"fwd", "fwd-keyreq", "ret", "ret-noanon", "ret-dyn", "keyfetch", "truncated", "stale", "badblock", "notcustomer"}
	want := map[string]string{"truncated": "malformed", "stale": core.ErrStaleEpoch.Error(),
		"badblock": core.ErrBadAddrBlock.Error(), "notcustomer": core.ErrNotCustomer.Error()}
	for i := 0; i < 300; i++ {
		class := classes[i%len(classes)]
		payload := make([]byte, []int{64, 512, 1400}[i/len(classes)%3])
		gen.Read(payload)
		src := netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)})
		cust := netip.AddrFrom4([4]byte{10, 10, byte(gen.Intn(256)), byte(gen.Intn(256))})
		nonce := binary.BigEndian.AppendUint64(nil, gen.Uint64())
		epoch := uint32(2 - gen.Intn(2))
		if class == "stale" {
			epoch = []uint32{0, 3, 7}[gen.Intn(3)]
		}
		hide := cust
		if class == "notcustomer" {
			hide = netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
		}
		hidden, err := aesutil.EncryptAddr(o.key(epoch, nonce, src), hide, [8]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if class == "badblock" {
			gen.Read(hidden[:])
		}
		s4 := src.As4()
		var pkt []byte
		switch class {
		case "fwd-keyreq":
			pkt = packet(src, o.anycast, 0x28, 3, 0x01, 17, epoch, nonce, hidden[:], payload)
		case "ret", "ret-noanon", "ret-dyn":
			flags := map[string]uint8{"ret-noanon": 0x04, "ret-dyn": 0x08}[class]
			pkt = packet(cust, o.anycast, 0xb8, 5, flags, 17, epoch, nonce, s4[:], payload)
		case "keyfetch":
			pkt = packet(cust, o.anycast, 0, 7, 0, 0, 0, nil, s4[:], nil)
		default:
			pkt = packet(src, o.anycast, 0, 3, 0, 17, epoch, nonce, hidden[:], payload)
		}
		if class == "truncated" {
			pkt = pkt[:36+gen.Intn(16)]
		}
		for _, s := range []*core.Scratch{warm, warm, warm, core.NewScratch()} {
			out, err := checkAgainstOracle(t, o, n, s, rng, pkt)
			if w, refused := want[class]; refused != (err != nil) || refused && classOf(err) != w {
				t.Fatalf("packet %d (%s): %v", i, class, err)
			}
			if class == "ret-dyn" {
				n.ReleaseDynAddr(addr4(out[12:]))
			}
		}
	}
	if st := warm.SessionCacheStats(); st.Hits < 100 || st.Admissions < 100 {
		t.Fatalf("the long-lived scratch never served from its cache: %+v", st)
	}
}
