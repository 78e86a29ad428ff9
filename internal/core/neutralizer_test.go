package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	mathrand "math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

var (
	tStart   = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	anycast  = netip.MustParseAddr("10.200.0.1")
	annAddr  = netip.MustParseAddr("172.16.1.10") // outside source ("Ann")
	googAddr = netip.MustParseAddr("10.10.0.5")   // customer ("Google")
	custNet  = netip.MustParsePrefix("10.10.0.0/16")
)

// clientKey is a shared one-time-style RSA key for tests (keygen is slow).
var clientKey = mustKey()

func mustKey() *lightrsa.PrivateKey {
	k, err := lightrsa.GenerateKey(rand.Reader, lightrsa.DefaultBits)
	if err != nil {
		panic(err)
	}
	return k
}

func testSchedule() *keys.Schedule {
	return keys.NewSchedule(aesutil.Key{7}, tStart, time.Hour)
}

func newTestNeutralizer(t *testing.T, mut func(*Config)) *Neutralizer {
	t.Helper()
	cfg := Config{
		Schedule:   testSchedule(),
		Anycast:    anycast,
		IsCustomer: func(a netip.Addr) bool { return custNet.Contains(a) },
		Clock:      func() time.Time { return tStart.Add(10 * time.Minute) },
		Rand:       mathrand.New(mathrand.NewSource(1)),
	}
	if mut != nil {
		mut(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// process runs one packet through n on a fresh scratch, so the outputs
// stay valid however many packets the test processes.
func process(n *Neutralizer, pkt []byte) ([]Outgoing, error) {
	return n.ProcessScratch(NewScratch(), pkt)
}

// mkShimPacket builds a client-side shim packet for tests.
func mkShimPacket(t *testing.T, src, dst netip.Addr, tos uint8, sh *shim.Header, payload []byte) []byte {
	t.Helper()
	pkt, err := shim.BuildPacket(src, dst, tos, sh, payload)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// parseShimPacket decodes an output packet's IP header and shim.
func parseShimPacket(t *testing.T, pkt []byte) (*wire.IPv4, *shim.Header) {
	t.Helper()
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("output parse: %v", err)
	}
	var sh shim.Header
	if err := sh.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatalf("output shim parse: %v", err)
	}
	return &ip, &sh
}

// doKeySetup runs the Figure 2(a) exchange and returns the client's view:
// (nonce, Ks, epoch).
func doKeySetup(t *testing.T, n *Neutralizer) (keys.Nonce, aesutil.Key, keys.Epoch) {
	t.Helper()
	req := &shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: clientKey.PublicKey.Marshal()}
	out, err := process(n, mkShimPacket(t, annAddr, anycast, 0, req, nil))
	if err != nil {
		t.Fatalf("key setup: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("key setup produced %d packets", len(out))
	}
	ipl, sh := parseShimPacket(t, out[0].Pkt)
	if ipl.Src != anycast || ipl.Dst != annAddr {
		t.Fatalf("response addressed %v -> %v", ipl.Src, ipl.Dst)
	}
	if sh.Type != shim.TypeKeySetupResponse {
		t.Fatalf("response type = %v", sh.Type)
	}
	pt, err := clientKey.Decrypt(sh.Ciphertext)
	if err != nil {
		t.Fatalf("client decrypt: %v", err)
	}
	nonce, ks, err := shim.DecodeSetupPlaintext(pt)
	if err != nil {
		t.Fatal(err)
	}
	return nonce, ks, sh.Epoch
}

// mkData builds a forward data packet as the endhost would.
func mkData(t *testing.T, src netip.Addr, n *Neutralizer, nonce keys.Nonce, ks aesutil.Key,
	epoch keys.Epoch, hiddenDst netip.Addr, flags uint8, payload []byte) []byte {
	t.Helper()
	blk, err := aesutil.EncryptAddr(ks, hiddenDst, [8]byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	sh := &shim.Header{
		Type: shim.TypeData, Flags: flags, InnerProto: wire.ProtoUDP,
		Epoch: epoch, Nonce: nonce, HiddenAddr: blk,
	}
	return mkShimPacket(t, src, n.cfg.Anycast, 0, sh, payload)
}

func TestNewValidation(t *testing.T) {
	good := Config{
		Schedule:   testSchedule(),
		Anycast:    anycast,
		IsCustomer: func(netip.Addr) bool { return true },
	}
	if _, err := New(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.Schedule = nil
	if _, err := New(bad); err == nil {
		t.Error("nil schedule accepted")
	}
	bad = good
	bad.Anycast = netip.Addr{}
	if _, err := New(bad); err == nil {
		t.Error("zero anycast accepted")
	}
	bad = good
	bad.IsCustomer = nil
	if _, err := New(bad); err == nil {
		t.Error("nil IsCustomer accepted")
	}
}

func TestKeySetupRoundTrip(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, ks, epoch := doKeySetup(t, n)
	// The client-held Ks must equal the stateless derivation.
	want, err := testSchedule().SessionKey(epoch, nonce, annAddr)
	if err != nil {
		t.Fatal(err)
	}
	if ks != want {
		t.Error("client Ks does not match hash(KM, nonce, srcIP)")
	}
	if n.Stats().KeySetups.Load() != 1 {
		t.Errorf("KeySetups = %d", n.Stats().KeySetups.Load())
	}
}

// TestKeySetupRefusalZeroAlloc: a key-setup request whose one-time key
// is truncated or too small is refused with the bare ErrBadSetup, counted
// once as malformed, and costs no allocation — the one path a stranger
// fully controls.
func TestKeySetupRefusalZeroAlloc(t *testing.T) {
	n := newTestNeutralizer(t, func(c *Config) { c.Rand = nil })
	var reqs [][]byte
	for _, pub := range [][]byte{
		nil,
		{0x00},
		{0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8},
		append([]byte{0x00, 0x11, 0x00, 0x7f}, bytes.Repeat([]byte{0xff}, 15)...), // 127 bits in 17 octets
	} {
		reqs = append(reqs, mkShimPacket(t, annAddr, anycast, 0, &shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: pub}, nil))
	}
	s := NewScratch()
	for i, req := range reqs {
		before := n.Stats().Snapshot()
		s.Reset()
		if _, err := n.ProcessScratch(s, req); err != ErrBadSetup {
			t.Fatalf("request %d: %v, want ErrBadSetup itself", i, err)
		}
		if after := n.Stats().Snapshot(); after.DropMalformed != before.DropMalformed+1 || after.Dropped() != before.Dropped()+1 {
			t.Fatalf("request %d: drops moved %+v -> %+v", i, before, after)
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, req := range reqs {
			s.Reset()
			_, _ = n.ProcessScratch(s, req)
		}
	}); allocs != 0 {
		t.Fatalf("refused key setups allocate %v per batch of %d, want 0", allocs, len(reqs))
	}
}

func TestDataForwardPath(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, ks, epoch := doKeySetup(t, n)
	payload := []byte("e2e-encrypted application bytes")
	out, err := process(n, mkData(t, annAddr, n, nonce, ks, epoch, googAddr, 0, payload))
	if err != nil {
		t.Fatalf("data: %v", err)
	}
	ipl, sh := parseShimPacket(t, out[0].Pkt)
	if ipl.Src != annAddr || ipl.Dst != googAddr {
		t.Errorf("forwarded %v -> %v, want %v -> %v", ipl.Src, ipl.Dst, annAddr, googAddr)
	}
	if sh.Type != shim.TypeDelivered {
		t.Errorf("type = %v", sh.Type)
	}
	if sh.ClearAddr != anycast {
		t.Errorf("return address = %v, want anycast", sh.ClearAddr)
	}
	if sh.Nonce != nonce {
		t.Error("nonce not preserved")
	}
	if !bytes.Equal(sh.Payload(), payload) {
		t.Error("payload not preserved")
	}
	if n.Stats().DataForwarded.Load() != 1 {
		t.Error("DataForwarded counter")
	}
}

func TestDataKeyRequestStampsGrant(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, ks, epoch := doKeySetup(t, n)
	out, err := process(n, mkData(t, annAddr, n, nonce, ks, epoch, googAddr, shim.FlagKeyRequest, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	_, sh := parseShimPacket(t, out[0].Pkt)
	if !sh.HasGrant() {
		t.Fatal("no grant stamped despite FlagKeyRequest")
	}
	if sh.Grant.Nonce == nonce {
		t.Error("grant must carry a fresh nonce")
	}
	// The granted key must verify against the stateless derivation for
	// the same outside source.
	want, err := testSchedule().SessionKey(sh.Epoch, sh.Grant.Nonce, annAddr)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Grant.Key != want {
		t.Error("granted Ks' does not match hash(KM, nonce', srcIP)")
	}
	if n.Stats().GrantsStamped.Load() != 1 {
		t.Error("GrantsStamped counter")
	}
}

func TestDataStaleEpochRejected(t *testing.T) {
	n := newTestNeutralizer(t, func(c *Config) {
		c.Clock = func() time.Time { return tStart.Add(5 * time.Hour) } // epoch 5
	})
	src := annAddr
	sched := testSchedule()
	nonce := keys.Nonce{1}
	// Epoch 3 is two epochs old: reject.
	ks, _ := sched.SessionKey(3, nonce, src)
	_, err := process(n, mkData(t, src, n, nonce, ks, 3, googAddr, 0, nil))
	if err != ErrStaleEpoch {
		t.Errorf("epoch 3 at epoch 5: err = %v, want ErrStaleEpoch", err)
	}
	// Epoch 4 (previous) is inside the grace window: accept.
	ks4, _ := sched.SessionKey(4, nonce, src)
	if _, err := process(n, mkData(t, src, n, nonce, ks4, 4, googAddr, 0, nil)); err != nil {
		t.Errorf("grace epoch rejected: %v", err)
	}
	if n.Stats().DropStaleEpoch.Load() != 1 {
		t.Error("DropStaleEpoch counter")
	}
}

// TestWallClockAcceptanceMatchesTimeNow runs the data path on the default
// clock, the scratch's wall-clock view, over 20 ms epochs for 250 ms:
// every packet, keyed from two epochs back to one ahead, is served or
// refused as ErrStaleEpoch as the acceptance rule says at the epoch
// time.Now gives just before or just after the call (or between them,
// should the call outlast an epoch).
func TestWallClockAcceptanceMatchesTimeNow(t *testing.T) {
	sched := keys.NewSchedule(aesutil.Key{7}, time.Now().Add(-time.Second), 20*time.Millisecond)
	n := newTestNeutralizer(t, func(c *Config) { c.Schedule, c.Clock = sched, nil })
	s := NewScratch()
	served, refused, epochs := 0, 0, map[keys.Epoch]bool{}
	for start := time.Now(); time.Since(start) < 250*time.Millisecond; {
		e := sched.EpochAt(time.Now())
		for i := 0; i < 4; i++ {
			f := mkFlow(t, sched, e-2+keys.Epoch(i), i)
			ok, before, after := judgeOnWallClock(t, n, s, sched, f, f.data(t, f.ks, googAddr))
			if ok {
				served++
			} else {
				refused++
			}
			epochs[before], epochs[after] = true, true
		}
	}
	if len(epochs) < 10 || served == 0 || refused == 0 {
		t.Errorf("%d epochs, %d served, %d refused: want at least 10 epochs and both outcomes", len(epochs), served, refused)
	}
}

// TestWallClockAcceptanceAcrossFarBoundary is the same judgment on 10 s
// epochs with the next boundary 2.5 s away, so the scratch's wall-clock
// view starts on a far anchor, which reads no clock, goes near when the
// generation moves a second later, and crosses the boundary. Packets
// keyed e-1, e and e+1 are each served on one side of it and refused on
// the other. It fails if the first packets end within 2 s of the
// boundary, where the first anchor may already be near.
func TestWallClockAcceptanceAcrossFarBoundary(t *testing.T) {
	t.Parallel()
	const epochLen = 10 * time.Second
	boundary := time.Now().Add(2500 * time.Millisecond)
	sched := keys.NewSchedule(aesutil.Key{7}, boundary.Add(-5*epochLen), epochLen)
	n := newTestNeutralizer(t, func(c *Config) { c.Schedule, c.Clock = sched, nil })
	s := NewScratch()
	var flows []testFlow
	var pkts [][]byte
	for i, e := 0, sched.EpochAt(time.Now())-1; i < 3; i, e = i+1, e+1 {
		flows = append(flows, mkFlow(t, sched, e, i))
		pkts = append(pkts, flows[i].data(t, flows[i].ks, googAddr))
	}
	served, refused := map[keys.Epoch]bool{}, map[keys.Epoch]bool{}
	for first := true; time.Now().Before(boundary.Add(200 * time.Millisecond)); first = false {
		for i, f := range flows {
			if ok, _, _ := judgeOnWallClock(t, n, s, sched, f, pkts[i]); ok {
				served[f.epoch] = true
			} else {
				refused[f.epoch] = true
			}
		}
		if left := time.Until(boundary); first && left <= 2*time.Second {
			t.Fatalf("first packets ended %v before the boundary: the first anchor may not be far", left)
		}
		time.Sleep(time.Millisecond)
	}
	for _, f := range flows {
		if f.epoch != flows[1].epoch && (!served[f.epoch] || !refused[f.epoch]) {
			t.Errorf("packets keyed under epoch %d: served %v, refused %v; want both across the boundary", f.epoch, served[f.epoch], refused[f.epoch])
		}
	}
}

// judgeOnWallClock processes pkt, f's data packet, and fails t unless it
// is served or refused as ErrStaleEpoch as the acceptance rule says at an
// epoch time.Now gives just before or just after the call (or between
// them, should the call outlast an epoch). It reports whether pkt was
// served and those two epochs.
func judgeOnWallClock(t *testing.T, n *Neutralizer, s *Scratch, sched *keys.Schedule, f testFlow, pkt []byte) (bool, keys.Epoch, keys.Epoch) {
	t.Helper()
	before := sched.EpochAt(time.Now())
	_, err := one(t, n, s, pkt)
	after := sched.EpochAt(time.Now())
	if err != nil && !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("packet of epoch %d: %v", f.epoch, err)
	}
	ruled := false
	for cur := before; cur <= after; cur++ {
		ruled = ruled || cur.Accepts(f.epoch) == (err == nil)
	}
	if !ruled {
		t.Fatalf("packet of epoch %d between epochs %d and %d: err %v", f.epoch, before, after, err)
	}
	return err == nil, before, after
}

func TestDataBadAddrBlock(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, _, epoch := doKeySetup(t, n)
	wrongKs := aesutil.Key{0xFF} // not the derived key
	_, err := process(n, mkData(t, annAddr, n, nonce, wrongKs, epoch, googAddr, 0, nil))
	if err != ErrBadAddrBlock {
		t.Errorf("err = %v, want ErrBadAddrBlock", err)
	}
	if n.Stats().DropBadAddrBlock.Load() != 1 {
		t.Error("DropBadAddrBlock counter")
	}
}

func TestDataNonCustomerRejected(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, ks, epoch := doKeySetup(t, n)
	outsider := netip.MustParseAddr("8.8.8.8")
	_, err := process(n, mkData(t, annAddr, n, nonce, ks, epoch, outsider, 0, nil))
	if err != ErrNotCustomer {
		t.Errorf("err = %v, want ErrNotCustomer (no open relay)", err)
	}
}

func TestReturnPath(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, ks, epoch := doKeySetup(t, n)
	payload := []byte("reply bytes")
	ret := &shim.Header{
		Type: shim.TypeReturn, InnerProto: wire.ProtoUDP,
		Epoch: epoch, Nonce: nonce, ClearAddr: annAddr,
	}
	out, err := process(n, mkShimPacket(t, googAddr, anycast, 0, ret, payload))
	if err != nil {
		t.Fatalf("return: %v", err)
	}
	ipl, sh := parseShimPacket(t, out[0].Pkt)
	if ipl.Src != anycast || ipl.Dst != annAddr {
		t.Errorf("return forwarded %v -> %v, want anycast -> %v", ipl.Src, ipl.Dst, annAddr)
	}
	if sh.Type != shim.TypeReturnDelivered {
		t.Errorf("type = %v", sh.Type)
	}
	// Ann can decrypt the hidden source with her session key.
	got, _, err := aesutil.DecryptAddr(ks, sh.HiddenAddr)
	if err != nil {
		t.Fatalf("initiator cannot decrypt hidden source: %v", err)
	}
	if got != googAddr {
		t.Errorf("hidden source = %v, want %v", got, googAddr)
	}
	if !bytes.Equal(sh.Payload(), payload) {
		t.Error("payload not preserved")
	}
}

func TestReturnFromNonCustomerRejected(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	ret := &shim.Header{Type: shim.TypeReturn, Nonce: keys.Nonce{1}, ClearAddr: annAddr}
	_, err := process(n, mkShimPacket(t, netip.MustParseAddr("9.9.9.9"), anycast, 0, ret, nil))
	if err != ErrNotFromCustomer {
		t.Errorf("err = %v, want ErrNotFromCustomer", err)
	}
}

func TestReturnNoAnonymizeOptOut(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, _, epoch := doKeySetup(t, n)
	ret := &shim.Header{
		Type: shim.TypeReturn, Flags: shim.FlagNoAnonymize,
		Epoch: epoch, Nonce: nonce, ClearAddr: annAddr,
	}
	out, err := process(n, mkShimPacket(t, googAddr, anycast, 0, ret, nil))
	if err != nil {
		t.Fatal(err)
	}
	src, _, _ := wire.IPv4Addrs(out[0].Pkt)
	if src != googAddr {
		t.Errorf("opt-out src = %v, want customer's own address", src)
	}
}

func TestReturnDynamicAddr(t *testing.T) {
	var allocs []netip.Addr
	n := newTestNeutralizer(t, func(c *Config) {
		c.DynAddrPool = netip.MustParsePrefix("10.250.0.0/24")
		c.OnDynAlloc = func(a netip.Addr, alloc bool) {
			if alloc {
				allocs = append(allocs, a)
			}
		}
	})
	nonce, _, epoch := doKeySetup(t, n)
	ret := &shim.Header{
		Type: shim.TypeReturn, Flags: shim.FlagDynamicAddr,
		Epoch: epoch, Nonce: nonce, ClearAddr: annAddr,
	}
	out1, err := process(n, mkShimPacket(t, googAddr, anycast, 0, ret, nil))
	if err != nil {
		t.Fatal(err)
	}
	src1, _, _ := wire.IPv4Addrs(out1[0].Pkt)
	if !netip.MustParsePrefix("10.250.0.0/24").Contains(src1) {
		t.Fatalf("dynamic address %v outside pool", src1)
	}
	if src1 == anycast || src1 == googAddr {
		t.Error("dynamic address must differ from anycast and customer")
	}
	// Stable across packets of the same flow.
	out2, err := process(n, mkShimPacket(t, googAddr, anycast, 0, ret, nil))
	if err != nil {
		t.Fatal(err)
	}
	src2, _, _ := wire.IPv4Addrs(out2[0].Pkt)
	if src2 != src1 {
		t.Errorf("dynamic address not stable per flow: %v vs %v", src1, src2)
	}
	// Only the neutralizer can map it back.
	cust, peer, ok := n.DynFlowOf(src1)
	if !ok || cust != googAddr || peer != annAddr {
		t.Errorf("DynFlowOf = %v %v %v", cust, peer, ok)
	}
	if n.DynAddrCount() != 1 || len(allocs) != 1 {
		t.Errorf("allocations = %d/%d", n.DynAddrCount(), len(allocs))
	}
	n.ReleaseDynAddr(src1)
	if n.DynAddrCount() != 0 {
		t.Error("release did not clear table")
	}
	if _, _, ok := n.DynFlowOf(src1); ok {
		t.Error("released address still resolvable")
	}
}

func TestDynamicAddrDisabledByDefault(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, _, epoch := doKeySetup(t, n)
	ret := &shim.Header{
		Type: shim.TypeReturn, Flags: shim.FlagDynamicAddr,
		Epoch: epoch, Nonce: nonce, ClearAddr: annAddr,
	}
	if _, err := process(n, mkShimPacket(t, googAddr, anycast, 0, ret, nil)); err != ErrDynPoolExhausted {
		t.Errorf("err = %v, want ErrDynPoolExhausted", err)
	}
}

func TestKeyFetchReverseDirection(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	req := &shim.Header{Type: shim.TypeKeyFetchRequest, ClearAddr: annAddr}
	out, err := process(n, mkShimPacket(t, googAddr, anycast, 0, req, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, sh := parseShimPacket(t, out[0].Pkt)
	if sh.Type != shim.TypeKeyFetchResponse {
		t.Fatalf("type = %v", sh.Type)
	}
	// The fetched key is bound to the *peer* (outside) address, so the
	// outside party's data packets derive the same Ks.
	want, err := testSchedule().SessionKey(sh.Epoch, sh.Grant.Nonce, annAddr)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Grant.Key != want {
		t.Error("fetched key not bound to peer address")
	}
	// Non-customers may not fetch keys.
	if _, err := process(n, mkShimPacket(t, annAddr, anycast, 0, req, nil)); err != ErrNotFromCustomer {
		t.Errorf("outside fetch: err = %v", err)
	}
}

func TestOffloadDelegatesToHelpers(t *testing.T) {
	helper1 := netip.MustParseAddr("10.10.0.7")
	helper2 := netip.MustParseAddr("10.10.0.8")
	n := newTestNeutralizer(t, func(c *Config) {
		c.Offload = &OffloadPolicy{Helpers: []netip.Addr{helper1, helper2}}
	})
	req := &shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: clientKey.PublicKey.Marshal()}
	seen := map[netip.Addr]int{}
	for i := 0; i < 4; i++ {
		out, err := process(n, mkShimPacket(t, annAddr, anycast, 0, req, nil))
		if err != nil {
			t.Fatal(err)
		}
		ipl, sh := parseShimPacket(t, out[0].Pkt)
		seen[ipl.Dst]++
		if sh.Type != shim.TypeKeySetupRequest || sh.Flags&shim.FlagOffloaded == 0 {
			t.Fatalf("offloaded packet type=%v flags=%b", sh.Type, sh.Flags)
		}
		// The stamped grant must verify against the stateless derivation.
		want, err := testSchedule().SessionKey(sh.Epoch, sh.Grant.Nonce, annAddr)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Grant.Key != want {
			t.Error("offload grant key mismatch")
		}
		// The helper has everything needed to produce the response.
		pub, _, err := lightrsa.UnmarshalPublicKey(sh.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := pub.Encrypt(rand.Reader, shim.EncodeSetupPlaintext(sh.Grant.Nonce, sh.Grant.Key))
		if err != nil {
			t.Fatal(err)
		}
		pt, err := clientKey.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		gotNonce, gotKey, _ := shim.DecodeSetupPlaintext(pt)
		if gotNonce != sh.Grant.Nonce || gotKey != sh.Grant.Key {
			t.Error("helper-encrypted grant does not roundtrip")
		}
	}
	if seen[helper1] != 2 || seen[helper2] != 2 {
		t.Errorf("round robin = %v", seen)
	}
	if n.Stats().KeySetupsOffload.Load() != 4 {
		t.Error("KeySetupsOffload counter")
	}
}

// TestOffloadRoundRobinSurvivesCounterWrap: the round-robin counter is
// a uint64 that a busy neutralizer carries past 2^31 in about a day of
// offloaded setups and, in time, past 2^63 and 2^64; the helper index
// must stay in range and keep alternating across each.
func TestOffloadRoundRobinSurvivesCounterWrap(t *testing.T) {
	helpers := []netip.Addr{netip.MustParseAddr("10.10.0.7"), netip.MustParseAddr("10.10.0.8")}
	for _, start := range []uint64{1<<31 - 2, 1<<63 - 2, 1<<64 - 2} {
		o := &OffloadPolicy{Helpers: helpers, next: start}
		seen := map[netip.Addr]int{}
		for i := 0; i < 4; i++ {
			h, ok := o.pick()
			if !ok {
				t.Fatalf("next=%d: pick refused with helpers configured", start)
			}
			seen[h]++
		}
		if seen[helpers[0]] != 2 || seen[helpers[1]] != 2 {
			t.Errorf("next=%d: four picks spread %v, want 2 and 2", start, seen)
		}
	}
}

func TestAltDataMode(t *testing.T) {
	altKey := mustKey()
	n := newTestNeutralizer(t, func(c *Config) { c.AltIdentity = altKey })
	// Source encrypts (dst‖salt) under the neutralizer's public key.
	g4 := googAddr.As4()
	pt := append(g4[:], 1, 2, 3, 4, 5, 6, 7, 8)
	ct, err := altKey.PublicKey.Encrypt(rand.Reader, pt)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shim.Header{Type: shim.TypeAltData, InnerProto: wire.ProtoUDP, Ciphertext: ct}
	out, err := process(n, mkShimPacket(t, annAddr, anycast, 0, sh, []byte("pl")))
	if err != nil {
		t.Fatalf("alt data: %v", err)
	}
	_, dst, _ := wire.IPv4Addrs(out[0].Pkt)
	if dst != googAddr {
		t.Errorf("alt forwarded to %v", dst)
	}
	if n.Stats().AltSetups.Load() != 1 {
		t.Error("AltSetups counter")
	}
}

func TestAltDataUnconfigured(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	sh := &shim.Header{Type: shim.TypeAltData, Ciphertext: []byte{1, 2, 3}}
	if _, err := process(n, mkShimPacket(t, annAddr, anycast, 0, sh, nil)); err != ErrNoAltIdentity {
		t.Errorf("err = %v, want ErrNoAltIdentity", err)
	}
}

func TestNonShimPacketRejected(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	pkt, err := wire.AppendUDP(nil, annAddr, anycast, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := process(n, pkt); err != ErrNotShim {
		t.Errorf("err = %v, want ErrNotShim", err)
	}
}

func TestDSCPPreservedThroughNeutralizer(t *testing.T) {
	n := newTestNeutralizer(t, nil)
	nonce, ks, epoch := doKeySetup(t, n)
	blk, err := aesutil.EncryptAddr(ks, googAddr, [8]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	sh := &shim.Header{Type: shim.TypeData, Epoch: epoch, Nonce: nonce, HiddenAddr: blk}
	const efTOS = 46 << 2 // EF DSCP
	out, err := process(n, mkShimPacket(t, annAddr, anycast, efTOS, sh, nil))
	if err != nil {
		t.Fatal(err)
	}
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(out[0].Pkt); err != nil {
		t.Fatal(err)
	}
	if ip.DSCP() != 46 {
		t.Errorf("DSCP = %d, want 46 (§3.4: neutralizer must not modify DSCP)", ip.DSCP())
	}
}

// TestStatelessness is the property at the core of the design: processing
// traffic from many distinct sources leaves no per-source state behind,
// and any replica sharing the schedule can take over mid-conversation.
func TestStatelessness(t *testing.T) {
	n1 := newTestNeutralizer(t, nil)
	n2 := newTestNeutralizer(t, nil) // replica: same schedule, separate instance

	sched := testSchedule()
	epoch := sched.EpochAt(tStart.Add(10 * time.Minute))
	for i := 0; i < 200; i++ {
		src := netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)})
		nonce := keys.Nonce{byte(i), byte(i >> 8)}
		ks, err := sched.SessionKey(epoch, nonce, src)
		if err != nil {
			t.Fatal(err)
		}
		pkt := mkData(t, src, n1, nonce, ks, epoch, googAddr, 0, []byte("d"))
		// Alternate replicas packet by packet: with no shared state except
		// the schedule, both must succeed.
		var target *Neutralizer
		if i%2 == 0 {
			target = n1
		} else {
			target = n2
		}
		if _, err := process(target, pkt); err != nil {
			t.Fatalf("replica processing failed at %d: %v", i, err)
		}
	}
	if n1.DynAddrCount() != 0 || n2.DynAddrCount() != 0 {
		t.Error("data path must not allocate per-flow state")
	}
	if got := n1.Stats().DataForwarded.Load() + n2.Stats().DataForwarded.Load(); got != 200 {
		t.Errorf("forwarded = %d", got)
	}
}

func TestDynPoolExhaustion(t *testing.T) {
	n := newTestNeutralizer(t, func(c *Config) {
		c.DynAddrPool = netip.MustParsePrefix("10.250.0.0/30") // 3 usable offsets
	})
	nonce, _, epoch := doKeySetup(t, n)
	var lastErr error
	for i := 0; i < 6; i++ {
		peer := netip.AddrFrom4([4]byte{172, 16, 9, byte(i)})
		ret := &shim.Header{
			Type: shim.TypeReturn, Flags: shim.FlagDynamicAddr,
			Epoch: epoch, Nonce: nonce, ClearAddr: peer,
		}
		_, lastErr = process(n, mkShimPacket(t, googAddr, anycast, 0, ret, nil))
	}
	if lastErr != ErrDynPoolExhausted {
		t.Errorf("err = %v, want ErrDynPoolExhausted", lastErr)
	}
}

// TestDynAddrReusedAfterRelease: a long-lived neutralizer must not run
// its pool dry by churn alone — a released address is allocatable again,
// and exhaustion means every address is live.
func TestDynAddrReusedAfterRelease(t *testing.T) {
	events := map[netip.Addr][2]int{} // addr -> {allocated, released} announcements
	n := newTestNeutralizer(t, func(c *Config) {
		c.DynAddrPool = netip.MustParsePrefix("10.250.0.0/29") // 6 usable offsets
		c.OnDynAlloc = func(a netip.Addr, alloc bool) {
			e := events[a]
			if alloc {
				e[0]++
			} else {
				e[1]++
			}
			events[a] = e
		}
	})
	nonce, _, epoch := doKeySetup(t, n)
	alloc := func(flow byte) (netip.Addr, error) {
		ret := &shim.Header{
			Type: shim.TypeReturn, Flags: shim.FlagDynamicAddr,
			Epoch: epoch, Nonce: nonce, ClearAddr: netip.AddrFrom4([4]byte{172, 16, 9, flow}),
		}
		out, err := process(n, mkShimPacket(t, googAddr, anycast, 0, ret, nil))
		if err != nil {
			return netip.Addr{}, err
		}
		src, _, err := wire.IPv4Addrs(out[0].Pkt)
		return src, err
	}
	var addrs []netip.Addr
	for flow := byte(0); flow < 6; flow++ {
		a, err := alloc(flow)
		if err != nil {
			t.Fatalf("flow %d: %v", flow, err)
		}
		addrs = append(addrs, a)
	}
	if _, err := alloc(6); err != ErrDynPoolExhausted {
		t.Fatalf("full pool: err = %v, want ErrDynPoolExhausted", err)
	}
	released := addrs[2]
	n.ReleaseDynAddr(released)
	got, err := alloc(7)
	if err != nil {
		t.Fatalf("allocation after a release: %v", err)
	}
	if got != released {
		t.Errorf("allocated %v, want the released %v (the only free address)", got, released)
	}
	if _, peer, ok := n.DynFlowOf(got); !ok || peer != netip.AddrFrom4([4]byte{172, 16, 9, 7}) {
		t.Errorf("reused address maps to peer %v (ok=%v), want the new flow", peer, ok)
	}
	if _, err := alloc(8); err != ErrDynPoolExhausted {
		t.Errorf("pool full again: err = %v, want ErrDynPoolExhausted", err)
	}
	for _, a := range addrs {
		want := [2]int{1, 0}
		if a == released {
			want = [2]int{2, 1}
		}
		if events[a] != want {
			t.Errorf("%v announced {alloc, release} = %v, want %v", a, events[a], want)
		}
	}
}

func TestVanillaForward(t *testing.T) {
	pkt, err := wire.AppendUDP(nil, annAddr, googAddr, 1, 2, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := VanillaForward(pkt); err != nil {
		t.Fatal(err)
	}
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("post-forward packet invalid: %v", err)
	}
	if ip.TTL != 63 {
		t.Errorf("TTL = %d", ip.TTL)
	}
	// TTL exhaustion.
	pkt[8] = 1
	if err := wire.RepairChecksum(pkt); err != nil {
		t.Fatal(err)
	}
	if err := VanillaForward(pkt); err == nil {
		t.Error("TTL=1 forward should fail")
	}
}

func TestAddAddrOffset(t *testing.T) {
	base := netip.MustParseAddr("10.0.0.0")
	if got := addAddrOffset(base, 1); got != netip.MustParseAddr("10.0.0.1") {
		t.Errorf("offset 1 = %v", got)
	}
	if got := addAddrOffset(base, 256); got != netip.MustParseAddr("10.0.1.0") {
		t.Errorf("offset 256 = %v", got)
	}
}

func TestAltSetupSlowerThanChosenDesign(t *testing.T) {
	// Sanity check of the §3.2 argument (precise numbers in benchmarks):
	// neutralizer-side RSA encrypt (e=3) must be much cheaper than RSA
	// decrypt of equal modulus.
	altKey := mustKey()
	msg := make([]byte, 24)
	ct, err := altKey.PublicKey.Encrypt(rand.Reader, msg)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 50
	startEnc := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := altKey.PublicKey.Encrypt(rand.Reader, msg); err != nil {
			t.Fatal(err)
		}
	}
	encDur := time.Since(startEnc)
	startDec := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := altKey.Decrypt(ct); err != nil {
			t.Fatal(err)
		}
	}
	decDur := time.Since(startDec)
	if decDur < encDur {
		t.Errorf("RSA decrypt (%v) should cost more than e=3 encrypt (%v)", decDur, encDur)
	}
}

// Guard against accidental big.Int aliasing in lightrsa CRT reuse across
// concurrent ProcessScratch calls: run key setups from multiple goroutines.
func TestConcurrentProcess(t *testing.T) {
	n := newTestNeutralizer(t, func(c *Config) { c.Rand = rand.Reader })
	nonce, ks, epoch := doKeySetup(t, n)
	pkt := mkData(t, annAddr, n, nonce, ks, epoch, googAddr, 0, []byte("x"))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := process(n, bytes.Clone(pkt)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
