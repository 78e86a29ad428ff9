// Package diffserv implements the tiered service the paper explicitly
// permits (§3.4): DSCP codepoints, a strict-priority queue discipline
// and a token-bucket policer. A discriminatory ISP may sell these to its
// customers; the neutralizer preserves DSCP markings so paid-for
// differentiation keeps working even for anonymized traffic.
package diffserv

import (
	"time"

	"netneutral/internal/netem"
)

// Standard DSCP codepoints.
const (
	DSCPBestEffort  uint8 = 0  // CS0
	DSCPScavenger   uint8 = 8  // CS1 "lower effort"
	DSCPAF11        uint8 = 10 // assured forwarding class 1
	DSCPAF41        uint8 = 34 // assured forwarding class 4
	DSCPExpedited   uint8 = 46 // EF: low-loss low-latency (VoIP)
	DSCPNetworkCtrl uint8 = 48 // CS6
)

// numClasses counts DefaultClassifier's priority classes.
const numClasses = 3

// DefaultClassifier maps a DSCP to a class index, 0 the highest
// priority, in a common 3-class model: class 0 = EF and network control,
// class 1 = assured forwarding, class 2 = best effort and scavenger.
func DefaultClassifier(dscp uint8) int {
	switch {
	case dscp >= DSCPExpedited:
		return 0
	case dscp >= DSCPAF11:
		return 1
	default:
		return 2
	}
}

// perClassCap bounds each class's FIFO, in packets.
const perClassCap = 8

// PriorityQueue is a strict-priority netem.Queue over DefaultClassifier's
// classes: class 0 always dequeues before class 1, and so on. Each class
// has its own FIFO of perClassCap packets.
type PriorityQueue struct {
	classes [numClasses][]*netem.Packet
}

// NewPriorityQueue builds an empty strict-priority queue.
func NewPriorityQueue() *PriorityQueue { return &PriorityQueue{} }

// Enqueue implements netem.Queue.
func (q *PriorityQueue) Enqueue(p *netem.Packet) bool {
	c := DefaultClassifier(p.DSCP)
	if len(q.classes[c]) >= perClassCap {
		return false
	}
	q.classes[c] = append(q.classes[c], p)
	return true
}

// Dequeue implements netem.Queue: strict priority.
func (q *PriorityQueue) Dequeue() *netem.Packet {
	for c := range q.classes {
		if len(q.classes[c]) > 0 {
			p := q.classes[c][0]
			q.classes[c] = q.classes[c][1:]
			return p
		}
	}
	return nil
}

// Len implements netem.Queue.
func (q *PriorityQueue) Len() int {
	n := 0
	for _, c := range q.classes {
		n += len(c)
	}
	return n
}

// TokenBucket is a classic policer: traffic conforming to rate/burst is
// admitted; excess is not.
type TokenBucket struct {
	rateBps float64 // bits per second
	burst   float64 // bucket depth in bits
	tokens  float64
	last    time.Time
	started bool
}

// NewTokenBucket creates a policer admitting rateBps with the given burst
// (in bytes).
func NewTokenBucket(rateBps float64, burstBytes int) *TokenBucket {
	b := float64(burstBytes * 8)
	return &TokenBucket{rateBps: rateBps, burst: b, tokens: b}
}

// Allow reports whether a packet of size bytes conforms at time now,
// consuming tokens if it does.
func (t *TokenBucket) Allow(now time.Time, size int) bool {
	if !t.started {
		t.last, t.started = now, true
	}
	elapsed := now.Sub(t.last).Seconds()
	if elapsed > 0 {
		t.tokens += elapsed * t.rateBps
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.last = now
	}
	need := float64(size * 8)
	if t.tokens >= need {
		t.tokens -= need
		return true
	}
	return false
}
