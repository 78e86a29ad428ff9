// Package intserv implements a minimal per-flow guaranteed service
// (RSVP-style reservations) — the IntServ model of the paper's §3.4
// discussion.
//
// Guaranteed service requires the network to keep per-flow state, where a
// flow is a (source, destination) address pair. Anonymized traffic
// defeats this: every neutralized conversation collapses onto the same
// visible pair (outside host ↔ anycast address), so a discriminatory ISP
// cannot tell flows apart. The paper offers two remedies, both
// implemented by core: neutralizer-assigned dynamic addresses (flows
// become distinguishable, customers do not), or opting out of
// anonymization. This package provides the reservation table used to
// demonstrate both.
package intserv

import (
	"errors"
	"net/netip"
	"sync"

	"netneutral/internal/wire"
)

// Errors returned by this package.
var (
	ErrDuplicateFlow = errors.New("intserv: flow already reserved")
	ErrNoCapacity    = errors.New("intserv: insufficient capacity for reservation")
)

// FlowID identifies a flow the way an RSVP router does: by the visible
// (src, dst) address pair.
type FlowID struct {
	Src, Dst netip.Addr
}

// FlowOf extracts the FlowID from a serialized IPv4 packet.
func FlowOf(pkt []byte) (FlowID, error) {
	src, dst, err := wire.IPv4Addrs(pkt)
	if err != nil {
		return FlowID{}, err
	}
	return FlowID{Src: src, Dst: dst}, nil
}

// Reservation is a per-flow bandwidth guarantee.
type Reservation struct {
	Flow    FlowID
	RateBps float64
}

// capacityBps is a Table's reservable capacity: the guaranteed-service
// share of a 1 Gbps link, in bits/sec.
const capacityBps = 1e9

// Table is an admission-controlled reservation table with a budget of
// capacityBps.
type Table struct {
	mu    sync.Mutex
	used  float64
	flows map[FlowID]*Reservation
}

// NewTable creates an empty table.
func NewTable() *Table {
	return &Table{flows: make(map[FlowID]*Reservation)}
}

// Reserve admits a reservation or rejects it for capacity/duplicates.
func (t *Table) Reserve(r Reservation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.flows[r.Flow]; dup {
		return ErrDuplicateFlow
	}
	if t.used+r.RateBps > capacityBps {
		return ErrNoCapacity
	}
	cp := r
	t.flows[r.Flow] = &cp
	t.used += r.RateBps
	return nil
}
