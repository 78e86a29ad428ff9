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

// topo builds client — evil transit — resolver.
func topo(t *testing.T) (*netem.Simulator, *netem.Node, *netem.Node, *netem.Node) {
	t.Helper()
	s := netem.NewSimulator(start, 1)
	cl := s.MustAddNode("client", "att", clientAddr)
	evil := s.MustAddNode("evil", "att", netip.MustParseAddr("172.16.0.254"))
	res := s.MustAddNode("resolver", "cogent", resolverAddr)
	s.Connect(cl, evil, netem.LinkConfig{Delay: time.Millisecond})
	s.Connect(evil, res, netem.LinkConfig{Delay: time.Millisecond})
	s.BuildRoutes()
	return s, cl, evil, res
}

func TestPlainLookup(t *testing.T) {
	s, cl, _, res := topo(t)
	r := NewResolver(res, nil)
	r.AddRecord(googleRecord(t))
	c := NewClient(cl, mathrand.New(mathrand.NewSource(1)))

	var got Record
	var gotErr error
	done := false
	if err := c.LookupPlain(resolverAddr, "www.google.com", func(rec Record, err error) {
		got, gotErr, done = rec, err, true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !done || gotErr != nil {
		t.Fatalf("lookup: done=%v err=%v", done, gotErr)
	}
	if got.Addr != googleAddr || len(got.Neutralizers) != 2 {
		t.Errorf("record = %+v", got)
	}
	if r.Queries() != 1 || r.EncryptedQueries() != 0 {
		t.Errorf("queries = %d/%d", r.Queries(), r.EncryptedQueries())
	}
}

func TestPlainLookupNXDomain(t *testing.T) {
	s, cl, _, res := topo(t)
	NewResolver(res, nil)
	c := NewClient(cl, mathrand.New(mathrand.NewSource(1)))
	var gotErr error
	if err := c.LookupPlain(resolverAddr, "nonexistent.example", func(_ Record, err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if gotErr != ErrNoSuchName {
		t.Errorf("err = %v, want ErrNoSuchName", gotErr)
	}
}

func TestEncryptedLookup(t *testing.T) {
	s, cl, _, res := topo(t)
	id := testIdentity(t)
	r := NewResolver(res, id)
	r.AddRecord(googleRecord(t))
	c := NewClient(cl, mathrand.New(mathrand.NewSource(1)))

	var got Record
	var gotErr error
	if err := c.LookupEncrypted(resolverAddr, r.Public(), "www.google.com", func(rec Record, err error) {
		got, gotErr = rec, err
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got.Addr != googleAddr {
		t.Errorf("record = %+v", got)
	}
	if r.EncryptedQueries() != 1 {
		t.Error("encrypted query not counted")
	}
}

func TestEncryptedLookupNXDomain(t *testing.T) {
	s, cl, _, res := topo(t)
	r := NewResolver(res, testIdentity(t))
	c := NewClient(cl, mathrand.New(mathrand.NewSource(1)))
	var gotErr error
	if err := c.LookupEncrypted(resolverAddr, r.Public(), "nope.example", func(_ Record, err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if gotErr != ErrNoSuchName {
		t.Errorf("err = %v, want ErrNoSuchName", gotErr)
	}
}

// TestQueryNameVisibility is the §3.1 attack surface: the queried name is
// readable on the wire for plaintext queries and absent for encrypted
// ones.
func TestQueryNameVisibility(t *testing.T) {
	s, cl, evil, res := topo(t)
	id := testIdentity(t)
	r := NewResolver(res, id)
	r.AddRecord(googleRecord(t))
	c := NewClient(cl, mathrand.New(mathrand.NewSource(1)))

	var wirePkts [][]byte
	evil.AddTransitHook(func(_ time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
		wirePkts = append(wirePkts, bytes.Clone(pkt))
		return netem.Deliver
	})

	if err := c.LookupPlain(resolverAddr, "www.google.com", func(Record, error) {}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	leaked := false
	for _, p := range wirePkts {
		if bytes.Contains(p, []byte("www.google.com")) {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("sanity: plaintext query must expose the name")
	}

	wirePkts = nil
	if err := c.LookupEncrypted(resolverAddr, r.Public(), "www.google.com", func(Record, error) {}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	for i, p := range wirePkts {
		if bytes.Contains(p, []byte("www.google.com")) {
			t.Errorf("encrypted query packet %d leaks the name", i)
		}
	}
	if len(wirePkts) < 2 {
		t.Error("expected query+answer on the wire")
	}
}

// TestTargetedQueryDelay reproduces the motivating attack: the ISP delays
// plaintext queries naming a non-paying site; encrypted queries to an
// outside resolver are immune because the ISP cannot see the name.
func TestTargetedQueryDelay(t *testing.T) {
	s, cl, evil, res := topo(t)
	id := testIdentity(t)
	r := NewResolver(res, id)
	r.AddRecord(googleRecord(t))
	rec2 := Record{Name: "paying.example", Addr: netip.MustParseAddr("10.10.0.9")}
	r.AddRecord(rec2)
	c := NewClient(cl, mathrand.New(mathrand.NewSource(1)))

	// ISP rule: delay packets containing the target name by 500ms.
	policy := isp.NewPolicy(nil, isp.Rule{
		Name:   "delay-google-dns",
		Match:  isp.MatchPayloadContains([]byte("www.google.com")),
		Action: isp.Action{Delay: 500 * time.Millisecond},
	})
	evil.AddTransitHook(policy.Hook())

	var googleDone, payingDone, encDone time.Time
	if err := c.LookupPlain(resolverAddr, "www.google.com", func(Record, error) {
		googleDone = s.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.LookupPlain(resolverAddr, "paying.example", func(Record, error) {
		payingDone = s.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.LookupEncrypted(resolverAddr, r.Public(), "www.google.com", func(Record, error) {
		encDone = s.Now()
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()

	googleLat := googleDone.Sub(start)
	payingLat := payingDone.Sub(start)
	encLat := encDone.Sub(start)
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
