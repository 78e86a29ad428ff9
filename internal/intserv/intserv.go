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
// anonymization. This package provides the reservation table and the
// guaranteed-service queue used to demonstrate both.
package intserv

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"netneutral/internal/diffserv"
	"netneutral/internal/netem"
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

func (f FlowID) String() string { return fmt.Sprintf("%v->%v", f.Src, f.Dst) }

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
	Burst   int // bytes
}

// Table is an admission-controlled reservation table with a capacity
// budget (the guaranteed-service share of a link).
type Table struct {
	mu       sync.Mutex
	capacity float64 // total reservable bits/sec
	used     float64
	flows    map[FlowID]*Reservation
}

// NewTable creates a table with the given reservable capacity in bps.
func NewTable(capacityBps float64) *Table {
	return &Table{capacity: capacityBps, flows: make(map[FlowID]*Reservation)}
}

// Reserve admits a reservation or rejects it for capacity/duplicates.
func (t *Table) Reserve(r Reservation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.flows[r.Flow]; dup {
		return ErrDuplicateFlow
	}
	if t.used+r.RateBps > t.capacity {
		return ErrNoCapacity
	}
	cp := r
	t.flows[r.Flow] = &cp
	t.used += r.RateBps
	return nil
}

// Release frees a reservation.
func (t *Table) Release(f FlowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.flows[f]; ok {
		t.used -= r.RateBps
		delete(t.flows, f)
	}
}

// Lookup returns the reservation for a flow, if any.
func (t *Table) Lookup(f FlowID) (*Reservation, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.flows[f]
	return r, ok
}

// Len reports active reservations (the per-flow state the paper says a
// discriminatory ISP "can no longer keep" for anonymized traffic).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flows)
}

// Used reports reserved bandwidth in bps.
func (t *Table) Used() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// GuaranteedQueue is a netem.Queue giving reserved flows policed,
// prioritized service and everything else best effort.
//
// Each reserved flow is policed to its rate with a token bucket;
// conforming reserved packets dequeue ahead of best effort.
type GuaranteedQueue struct {
	table    *Table
	now      func() time.Time
	policers map[FlowID]*diffserv.TokenBucket
	reserved []*netem.Packet
	best     []*netem.Packet
	capEach  int
	// ReservedServed and BestServed count dequeues per class.
	ReservedServed uint64
	BestServed     uint64
	NonConforming  uint64
}

// NewGuaranteedQueue builds the queue; now supplies (virtual) time for
// the policers.
func NewGuaranteedQueue(table *Table, capEach int, now func() time.Time) *GuaranteedQueue {
	if capEach <= 0 {
		capEach = 64
	}
	return &GuaranteedQueue{
		table:    table,
		now:      now,
		policers: make(map[FlowID]*diffserv.TokenBucket),
		capEach:  capEach,
	}
}

// Enqueue implements netem.Queue.
func (q *GuaranteedQueue) Enqueue(p *netem.Packet) bool {
	flow, err := FlowOf(p.Pkt)
	if err == nil {
		if r, ok := q.table.Lookup(flow); ok {
			tb := q.policers[flow]
			if tb == nil {
				tb = diffserv.NewTokenBucket(r.RateBps, max(r.Burst, 1500))
				q.policers[flow] = tb
			}
			if tb.Allow(q.now(), p.Size) {
				if len(q.reserved) >= q.capEach {
					return false
				}
				q.reserved = append(q.reserved, p)
				return true
			}
			// Non-conforming excess of a reserved flow degrades to best
			// effort rather than being dropped outright.
			q.NonConforming++
		}
	}
	if len(q.best) >= q.capEach {
		return false
	}
	q.best = append(q.best, p)
	return true
}

// Dequeue implements netem.Queue: reserved first.
func (q *GuaranteedQueue) Dequeue() *netem.Packet {
	if len(q.reserved) > 0 {
		p := q.reserved[0]
		q.reserved = q.reserved[1:]
		q.ReservedServed++
		return p
	}
	if len(q.best) > 0 {
		p := q.best[0]
		q.best = q.best[1:]
		q.BestServed++
		return p
	}
	return nil
}

// Len implements netem.Queue.
func (q *GuaranteedQueue) Len() int { return len(q.reserved) + len(q.best) }
