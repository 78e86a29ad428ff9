// Package onion is the comparison baseline of the paper's §5: classic
// anonymous routing in the style of Tor, with telescoped circuit setup
// and — the properties the neutralizer is designed to avoid — per-flow
// state at every relay and public-key operations proportional to the
// number of flows.
//
// The implementation is deliberately compact (three fixed hops, direct
// method calls instead of a network, circuit setup and teardown only:
// no data cell is ever relayed) because the A3 experiment measures
// resource consumption — relay state size and public-key operation counts
// — not network behaviour.
package onion

import (
	"crypto/rand"
	"errors"
	"io"
	"sync"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/e2e"
)

// Errors returned by this package.
var (
	ErrNoSuchCircuit = errors.New("onion: unknown circuit id")
	ErrBadCell       = errors.New("onion: malformed cell")
	ErrTooFewRelays  = errors.New("onion: need at least one relay")
)

// Relay is an onion router. Every live circuit through it occupies an
// entry in its table — the per-flow state the neutralizer does not have.
type Relay struct {
	id *e2e.Identity

	mu       sync.Mutex
	circuits map[uint32]*circuitState
	nextID   uint32

	// PKOps counts private-key operations (circuit creations), the
	// expensive work §5 contrasts with the neutralizer's cheap e=3
	// encryptions.
	PKOps uint64
}

type circuitState struct {
	key aesutil.Key
	// next is the downstream relay (nil at the exit).
	next       *Relay
	nextCircID uint32
}

// NewRelay creates a relay with a fresh identity key.
func NewRelay(rng io.Reader) (*Relay, error) {
	if rng == nil {
		rng = rand.Reader
	}
	id, err := e2e.NewIdentity(rng, 0)
	if err != nil {
		return nil, err
	}
	return &Relay{id: id, circuits: make(map[uint32]*circuitState)}, nil
}

// Public returns the relay's public key (what a directory would list).
func (r *Relay) Public() e2e.PublicKey { return r.id.Public() }

// StateSize reports live circuit-table entries.
func (r *Relay) StateSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.circuits)
}

// create installs a new circuit hop keyed by the symmetric key inside
// ct (encrypted under the relay's public key). One private-key op.
func (r *Relay) create(ct []byte) (uint32, error) {
	pt, err := r.id.DecryptSmall(ct)
	if err != nil || len(pt) != aesutil.KeySize {
		return 0, ErrBadCell
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.PKOps++
	r.nextID++
	id := r.nextID
	var k aesutil.Key
	copy(k[:], pt)
	r.circuits[id] = &circuitState{key: k}
	return id, nil
}

// extend links an existing circuit to the next relay, performing the
// create at that relay on the client's behalf (telescoping). It returns
// the downstream circuit id so the builder can extend further.
func (r *Relay) extend(circID uint32, next *Relay, ct []byte) (uint32, error) {
	r.mu.Lock()
	st, ok := r.circuits[circID]
	r.mu.Unlock()
	if !ok {
		return 0, ErrNoSuchCircuit
	}
	nextID, err := next.create(ct)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	st.next = next
	st.nextCircID = nextID
	r.mu.Unlock()
	return nextID, nil
}

// teardown removes the circuit state along the path.
func (r *Relay) teardown(circID uint32) {
	r.mu.Lock()
	st, ok := r.circuits[circID]
	delete(r.circuits, circID)
	r.mu.Unlock()
	if ok && st.next != nil {
		st.next.teardown(st.nextCircID)
	}
}

// Circuit is a client's handle on an established path.
type Circuit struct {
	entry   *Relay
	entryID uint32
	closed  bool
}

// BuildCircuit telescopes a circuit through the given relays. Each hop
// costs the client one public-key encryption and the relay one
// private-key decryption — per circuit, i.e. per flow.
func BuildCircuit(rng io.Reader, relays ...*Relay) (*Circuit, error) {
	if len(relays) == 0 {
		return nil, ErrTooFewRelays
	}
	if rng == nil {
		rng = rand.Reader
	}
	keys := make([]aesutil.Key, len(relays))
	for i := range keys {
		if _, err := io.ReadFull(rng, keys[i][:]); err != nil {
			return nil, err
		}
	}
	ct0, err := e2e.EncryptSmall(rng, relays[0].Public(), keys[0][:])
	if err != nil {
		return nil, err
	}
	entryID, err := relays[0].create(ct0)
	if err != nil {
		return nil, err
	}
	c := &Circuit{entry: relays[0], entryID: entryID}
	end, endID := relays[0], entryID
	for i := 1; i < len(relays); i++ {
		ct, err := e2e.EncryptSmall(rng, relays[i].Public(), keys[i][:])
		if err != nil {
			return nil, err
		}
		nextID, err := end.extend(endID, relays[i], ct)
		if err != nil {
			return nil, err
		}
		end, endID = relays[i], nextID
	}
	return c, nil
}

// Close tears down the circuit state at every relay.
func (c *Circuit) Close() {
	if !c.closed {
		c.entry.teardown(c.entryID)
		c.closed = true
	}
}
