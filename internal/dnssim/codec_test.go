package dnssim

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
)

// TestRecordMarshalBounds covers the three encode-bound bugs: an
// oversized name used to truncate its u16 length prefix, more than 255
// neutralizers wrapped the count byte, and a zero or IPv6 address
// panicked in As4. All must now fail loudly at encode time.
func TestRecordMarshalBounds(t *testing.T) {
	v4 := netip.MustParseAddr("10.10.0.5")
	manyNeuts := make([]netip.Addr, 256)
	for i := range manyNeuts {
		manyNeuts[i] = v4
	}
	cases := []struct {
		name string
		rec  Record
	}{
		{"name over 65535 bytes", Record{Name: strings.Repeat("a", 0x10000), Addr: v4}},
		{"256 neutralizers", Record{Name: "x", Addr: v4, Neutralizers: manyNeuts}},
		{"zero address", Record{Name: "x"}},
		{"ipv6 address", Record{Name: "x", Addr: netip.MustParseAddr("2001:db8::1")}},
		{"ipv6 neutralizer", Record{Name: "x", Addr: v4,
			Neutralizers: []netip.Addr{netip.MustParseAddr("2001:db8::2")}}},
		{"zero neutralizer", Record{Name: "x", Addr: v4, Neutralizers: []netip.Addr{{}}}},
	}
	for _, c := range cases {
		if _, err := c.rec.Marshal(); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", c.name, err)
		}
	}

	// Boundary values must still encode and round-trip.
	maxName := Record{Name: strings.Repeat("n", 0xFFFF), Addr: v4, Neutralizers: manyNeuts[:255]}
	b, err := maxName.Marshal()
	if err != nil {
		t.Fatalf("boundary record: %v", err)
	}
	got, err := UnmarshalRecord(b)
	if err != nil || got.Name != maxName.Name || len(got.Neutralizers) != 255 {
		t.Fatalf("boundary round-trip: err=%v name=%d neuts=%d", err, len(got.Name), len(got.Neutralizers))
	}
	// A 4-in-6 mapped address has a 4-byte wire form and is accepted.
	if _, err := (Record{Name: "x", Addr: netip.AddrFrom16(v4.As16())}).Marshal(); err != nil {
		t.Errorf("4-in-6 mapped address: %v", err)
	}
}

// TestUnmarshalRecordRejectsTrailingBytes: the codec is strict — any
// unconsumed bytes after the public key are a malformed message.
func TestUnmarshalRecordRejectsTrailingBytes(t *testing.T) {
	rec := Record{
		Name:         "www.google.com",
		Addr:         netip.MustParseAddr("10.10.0.5"),
		Neutralizers: []netip.Addr{netip.MustParseAddr("10.200.0.1")},
	}
	b, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRecord(b); err != nil {
		t.Fatalf("sanity: clean encoding must parse: %v", err)
	}
	for _, extra := range [][]byte{{0}, {0xde, 0xad}, bytes.Repeat([]byte{7}, 64)} {
		if _, err := UnmarshalRecord(append(bytes.Clone(b), extra...)); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%d trailing bytes: err = %v, want ErrBadMessage", len(extra), err)
		}
	}
}
