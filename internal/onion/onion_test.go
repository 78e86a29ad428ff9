package onion

import (
	"crypto/rand"
	"testing"
)

func mustRelays(t testing.TB, n int) []*Relay {
	t.Helper()
	out := make([]*Relay, n)
	for i := range out {
		r, err := NewRelay(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func TestPerCircuitStateAndPKOps(t *testing.T) {
	relays := mustRelays(t, 3)
	const flows = 10
	circs := make([]*Circuit, flows)
	for i := range circs {
		c, err := BuildCircuit(rand.Reader, relays...)
		if err != nil {
			t.Fatal(err)
		}
		circs[i] = c
	}
	// THE §5 contrast: every relay holds one state entry per flow and has
	// paid one private-key op per flow.
	for i, r := range relays {
		if got := r.StateSize(); got != flows {
			t.Errorf("relay %d state = %d, want %d (per-flow state)", i, got, flows)
		}
		if got := r.PKOps; got != flows {
			t.Errorf("relay %d PK ops = %d, want %d", i, got, flows)
		}
	}
	// Teardown releases state everywhere.
	for _, c := range circs {
		c.Close()
		c.Close() // double close is a no-op
	}
	for i, r := range relays {
		if r.StateSize() != 0 {
			t.Errorf("relay %d state after teardown = %d", i, r.StateSize())
		}
	}
}

func TestBuildCircuitErrors(t *testing.T) {
	if _, err := BuildCircuit(rand.Reader); err != ErrTooFewRelays {
		t.Errorf("err = %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	r := mustRelays(t, 1)[0]
	if _, err := r.create([]byte("garbage")); err != ErrBadCell {
		t.Errorf("garbage create: %v", err)
	}
	if _, err := r.extend(999, r, nil); err != ErrNoSuchCircuit {
		t.Errorf("extend of an unknown circuit: %v", err)
	}
}
