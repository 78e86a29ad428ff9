//go:build linux

package main

import (
	"crypto/cipher"
	"crypto/des"
	"time"
)

// Reference operations.
//
// The host this benchmark runs on is a small guest on shared hardware, and
// its speed for compute-dense code moves by a quarter to a third for
// seconds or minutes at a time, depending on what shares the physical
// core. Ten 15-second runs of an unchanged in-process loop read 500 to
// 734 ns per packet; the daemon's round trip read 17 or 24 µs depending on
// the minute. No statistic of a 15-second window removes that.
//
// What does remove it is a yardstick that suffers the same way at the same
// time: each workload alternates short slices of its own work with slices
// of a reference operation owned by this directory — code with a similar
// instruction mix that no later change to the repository can touch — and
// reports cost as a multiple of the reference, slice pair by slice pair.
// The daemon's round trip over the reflector's stayed within 1.10–1.14
// while the raw figure moved 50 %. The raw figures are still printed, and
// reported as per-layer metrics by the traced run.

// Set-up time has to be reported in seconds, and seconds on this host move
// like every other absolute time: between two sets of ten runs half an hour
// apart, with no code change, the median packet-set build went from 1.59 to
// 1.13 ms and the median cold start from 5.7 to 4.7 ms. So set-up time is
// reported at the reference's nominal speed: the median set-up, divided by
// the median of the reference operation timed next to every set-up, times
// what the reference read on this host when the benchmark was written. The
// measured seconds are printed beside it.
const (
	nominalPacketNs       = 700.0  // packetRef, per packet
	nominalEventNs        = 215.0  // eventRef, per event
	nominalReflectorStart = 0.0045 // reflector exec → first echoed datagram, seconds
)

// nominalSeconds is the median set-up time in seconds at the reference's
// nominal speed: refs are the reference readings taken next to the set-ups,
// in the unit of nominal.
func nominalSeconds(setups, refs []float64, nominal float64) float64 {
	return median(setups) / median(refs) * nominal
}

// packetRef is the reference for the core workloads: "handle one packet"
// as copy it, run a table-driven block cipher over its first 48 bytes
// (crypto/des: pure Go in the standard library, L1 table look-ups and ALU
// work like the software AES in the data path) and sum its IP header.
//
// It walks the workload's own packet set with its own cursor, so it
// streams the same memory the workload does: a 180 MB churn set makes
// both memory-bound, a 4096-packet ring leaves both in cache.
type packetRef struct {
	blk cipher.Block
	cur cursor
	out []byte
}

func newPacketRef(set *pktSet) (*packetRef, error) {
	blk, err := des.NewCipher([]byte("netneutr"))
	if err != nil {
		return nil, err
	}
	return &packetRef{blk: blk, cur: cursor{set: set}, out: make([]byte, 2048)}, nil
}

// slice handles whole batches of packets until dur has passed.
func (r *packetRef) slice(dur time.Duration) (n int, elapsed time.Duration) {
	pk := r.cur.set.pkts
	var sum uint32
	t0 := time.Now()
	for elapsed < dur {
		for k := 0; k < batchLen; k++ {
			p := pk[r.cur.i]
			if r.cur.i++; r.cur.i == len(pk) {
				r.cur.i = 0
			}
			o := r.out[:len(p)]
			copy(o, p)
			for b := 0; b+8 <= 48 && b+8 <= len(o); b += 8 {
				r.blk.Encrypt(o[b:b+8], o[b:b+8])
			}
			for i := 0; i+1 < 20 && i+1 < len(o); i += 2 {
				sum += uint32(o[i])<<8 | uint32(o[i+1])
			}
		}
		n += batchLen
		elapsed = time.Since(t0)
	}
	sink += uint64(sum)
	return n, elapsed
}

// refEvent is one entry of the reference event loop, sized like the
// engine's event.
type refEvent struct {
	at  int64
	seq uint64
	id  int32
	pad [5]uint64
}

// refHeap is a binary min-heap ordered by (at, seq).
type refHeap []refEvent

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	for i := len(*h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return top
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
}

// eventRef is the reference for the sim workloads: a discrete-event loop
// of 4096 self-rescheduling timers on a binary heap, each event touching
// a word of a 512 KB state table — pointer-light, branchy, cache-missy
// work like the engine's, in code the engine's authors cannot change.
type eventRef struct {
	heap  refHeap
	state []uint64
	seq   uint64
	x     uint64
}

func newEventRef() *eventRef {
	r := &eventRef{state: make([]uint64, 1<<16), x: 88172645463325252}
	for i := 0; i < 4096; i++ {
		r.heap.push(refEvent{at: int64(r.next() % 1000000), seq: r.seq, id: int32(i)})
		r.seq++
	}
	return r
}

func (r *eventRef) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

// slice runs events until dur has passed.
func (r *eventRef) slice(dur time.Duration) (n int, elapsed time.Duration) {
	t0 := time.Now()
	for elapsed < dur {
		for k := 0; k < 20000; k++ {
			e := r.heap.pop()
			x := r.next()
			r.state[(uint64(e.id)*2654435761+x)&uint64(len(r.state)-1)] += uint64(e.at)
			e.at += int64(x%1000000) + 1
			e.seq = r.seq
			r.seq++
			r.heap.push(e)
		}
		n += 20000
		elapsed = time.Since(t0)
	}
	return n, elapsed
}

// nsPerEvent runs one slice and returns its time per event.
func (r *eventRef) nsPerEvent(dur time.Duration) float64 {
	n, el := r.slice(dur)
	return perOp(el, n)
}
