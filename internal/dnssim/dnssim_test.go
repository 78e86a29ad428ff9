package dnssim

import (
	"bytes"
	mathrand "math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/e2e"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/simnet"
)

var (
	start        = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	clientAddr   = netip.MustParseAddr("172.16.1.10")
	resolverAddr = netip.MustParseAddr("10.50.0.53")
	googleAddr   = netip.MustParseAddr("10.10.0.5")
	anycastAddr  = netip.MustParseAddr("10.200.0.1")
)

func testIdentity(t *testing.T) *e2e.Identity {
	t.Helper()
	id, err := e2e.NewIdentity(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func googleRecord(t *testing.T) Record {
	t.Helper()
	return Record{
		Name:         "www.google.com",
		Addr:         googleAddr,
		Neutralizers: []netip.Addr{anycastAddr, netip.MustParseAddr("10.201.0.1")},
		PublicKey:    testIdentity(t).Public(),
	}
}

func mustMarshal(t *testing.T, rec Record) []byte {
	t.Helper()
	b, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecordMarshalRoundTrip(t *testing.T) {
	rec := googleRecord(t)
	got, err := UnmarshalRecord(mustMarshal(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rec.Name || got.Addr != rec.Addr {
		t.Errorf("roundtrip = %+v", got)
	}
	if len(got.Neutralizers) != 2 || got.Neutralizers[0] != anycastAddr {
		t.Errorf("neutralizers = %v", got.Neutralizers)
	}
	if !bytes.Equal(got.PublicKey.Marshal(), rec.PublicKey.Marshal()) {
		t.Error("public key mismatch")
	}
	// No public key.
	rec2 := Record{Name: "x", Addr: googleAddr}
	got2, err := UnmarshalRecord(mustMarshal(t, rec2))
	if err != nil || got2.PublicKey.Valid() {
		t.Errorf("keyless record: %+v %v", got2, err)
	}
}

func TestUnmarshalRecordErrors(t *testing.T) {
	cases := [][]byte{nil, {0}, {0, 5, 'a'}, {0, 1, 'a', 1, 2, 3}}
	for i, c := range cases {
		if _, err := UnmarshalRecord(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// world is client — evil transit — resolver, with a ConnClient on the
// client's simnet UDP conn.
type world struct {
	sim  *netem.Simulator
	n    *simnet.Net
	evil *netem.Node
	r    *Resolver
	c    *ConnClient
}

// newWorld builds the line and a resolver holding googleRecord; id, when
// not nil, lets it answer encrypted queries.
func newWorld(t *testing.T, id *e2e.Identity) *world {
	t.Helper()
	s := netem.NewSimulator(start, 1)
	cl := s.MustAddNode("client", "att", clientAddr)
	evil := s.MustAddNode("evil", "att", netip.MustParseAddr("172.16.0.254"))
	res := s.MustAddNode("resolver", "cogent", resolverAddr)
	s.Connect(cl, evil, netem.LinkConfig{Delay: time.Millisecond})
	s.Connect(evil, res, netem.LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()
	r := NewResolver(res, id)
	r.AddRecord(googleRecord(t))
	n := simnet.New(s)
	conn, err := n.ListenUDP(cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConnClient(conn, netip.AddrPortFrom(resolverAddr, Port), mathrand.New(mathrand.NewSource(1)))
	return &world{sim: s, n: n, evil: evil, r: r, c: c}
}

// run executes fn as the world's one blocking workload.
func (w *world) run(t *testing.T, fn func()) {
	t.Helper()
	w.n.Go(fn)
	if err := w.n.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPlainLookup(t *testing.T) {
	w := newWorld(t, nil)
	var got Record
	var err error
	w.run(t, func() { got, err = w.c.Lookup("www.google.com") })
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if got.Addr != googleAddr || len(got.Neutralizers) != 2 {
		t.Errorf("record = %+v", got)
	}
	if w.r.Queries() != 1 || w.r.EncryptedQueries() != 0 {
		t.Errorf("queries = %d/%d", w.r.Queries(), w.r.EncryptedQueries())
	}
}

func TestPlainLookupNXDomain(t *testing.T) {
	w := newWorld(t, nil)
	var err error
	w.run(t, func() { _, err = w.c.Lookup("nonexistent.example") })
	if err != ErrNoSuchName {
		t.Errorf("err = %v, want ErrNoSuchName", err)
	}
}

func TestEncryptedLookup(t *testing.T) {
	w := newWorld(t, testIdentity(t))
	var got Record
	var err error
	w.run(t, func() { got, err = w.c.LookupEncrypted(w.r.Public(), "www.google.com") })
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != googleAddr {
		t.Errorf("record = %+v", got)
	}
	if w.r.EncryptedQueries() != 1 {
		t.Error("encrypted query not counted")
	}
}

func TestEncryptedLookupNXDomain(t *testing.T) {
	w := newWorld(t, testIdentity(t))
	var err error
	w.run(t, func() { _, err = w.c.LookupEncrypted(w.r.Public(), "nope.example") })
	if err != ErrNoSuchName {
		t.Errorf("err = %v, want ErrNoSuchName", err)
	}
}

// TestQueryNameVisibility is the §3.1 attack surface: the queried name is
// readable on the wire for plaintext queries and absent for encrypted
// ones.
func TestQueryNameVisibility(t *testing.T) {
	w := newWorld(t, testIdentity(t))
	var plainPkts, encPkts [][]byte
	wirePkts := &plainPkts
	w.evil.AddTransitHook(func(_ time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
		*wirePkts = append(*wirePkts, bytes.Clone(pkt))
		return netem.Deliver
	})
	w.run(t, func() {
		if _, err := w.c.Lookup("www.google.com"); err != nil {
			t.Error(err)
		}
		wirePkts = &encPkts
		if _, err := w.c.LookupEncrypted(w.r.Public(), "www.google.com"); err != nil {
			t.Error(err)
		}
	})
	leaked := false
	for _, p := range plainPkts {
		if bytes.Contains(p, []byte("www.google.com")) {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("sanity: plaintext query must expose the name")
	}
	for i, p := range encPkts {
		if bytes.Contains(p, []byte("www.google.com")) {
			t.Errorf("encrypted query packet %d leaks the name", i)
		}
	}
	if len(encPkts) < 2 {
		t.Error("expected query+answer on the wire")
	}
}

// TestTargetedQueryDelay reproduces the motivating attack: the ISP delays
// plaintext queries naming a non-paying site; encrypted queries to an
// outside resolver are immune because the ISP cannot see the name.
func TestTargetedQueryDelay(t *testing.T) {
	w := newWorld(t, testIdentity(t))
	w.r.AddRecord(Record{Name: "paying.example", Addr: netip.MustParseAddr("10.10.0.9")})

	// ISP rule: delay packets containing the target name by 500ms.
	policy := isp.NewPolicy(nil, isp.Rule{
		Name:   "delay-google-dns",
		Match:  isp.MatchPayloadContains([]byte("www.google.com")),
		Action: isp.Action{Delay: 500 * time.Millisecond},
	})
	w.evil.AddTransitHook(policy.Hook())

	var googleLat, payingLat, encLat time.Duration
	timed := func(lookup func() (Record, error)) time.Duration {
		t0 := w.n.Now()
		if _, err := lookup(); err != nil {
			t.Error(err)
		}
		return w.n.Now().Sub(t0)
	}
	w.run(t, func() {
		googleLat = timed(func() (Record, error) { return w.c.Lookup("www.google.com") })
		payingLat = timed(func() (Record, error) { return w.c.Lookup("paying.example") })
		encLat = timed(func() (Record, error) { return w.c.LookupEncrypted(w.r.Public(), "www.google.com") })
	})
	if googleLat < 500*time.Millisecond {
		t.Errorf("plaintext google lookup = %v, want >= 500ms (targeted delay)", googleLat)
	}
	if payingLat > 100*time.Millisecond {
		t.Errorf("paying site lookup = %v, should be fast", payingLat)
	}
	if encLat > 100*time.Millisecond {
		t.Errorf("encrypted google lookup = %v, should evade the delay", encLat)
	}
	if policy.Hits("delay-google-dns") == 0 {
		t.Error("sanity: the rule should hit the plaintext query")
	}
}
