package eval

import (
	"crypto/rand"
	"errors"
	"testing"
)

func mustRelays(t testing.TB, n int) []*relay {
	t.Helper()
	out := make([]*relay, n)
	for i := range out {
		r, err := newRelay(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestPerCircuitStateAndPKOps is the §5 contrast A3 counts: every relay
// holds one state entry per flow and has paid one private-key operation
// per flow, and teardown releases the state everywhere.
func TestPerCircuitStateAndPKOps(t *testing.T) {
	relays := mustRelays(t, 3)
	const flows = 10
	closers := make([]func(), flows)
	for i := range closers {
		c, err := buildCircuit(rand.Reader, relays...)
		if err != nil {
			t.Fatal(err)
		}
		closers[i] = c
	}
	for i, r := range relays {
		if got := r.stateSize(); got != flows {
			t.Errorf("relay %d state = %d, want %d (per-flow state)", i, got, flows)
		}
		if got := r.pkOps; got != flows {
			t.Errorf("relay %d PK ops = %d, want %d", i, got, flows)
		}
	}
	for _, c := range closers {
		c()
	}
	for i, r := range relays {
		if r.stateSize() != 0 {
			t.Errorf("relay %d state after teardown = %d", i, r.stateSize())
		}
	}
}

func TestCreateErrors(t *testing.T) {
	r := mustRelays(t, 1)[0]
	if _, err := r.create([]byte("garbage")); !errors.Is(err, errBadCell) {
		t.Errorf("garbage create: %v", err)
	}
	if _, err := r.extend(999, r, nil); !errors.Is(err, errNoSuchCircuit) {
		t.Errorf("extend of an unknown circuit: %v", err)
	}
}
