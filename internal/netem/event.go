package netem

import "unsafe"

// The event loop stores typed event values, never boxed interfaces: the
// hot-path events (link departure, link arrival, policy-delayed
// redispatch) carry their operands in the event itself, so a forwarded
// packet costs no allocation per hop; only the public Schedule/ScheduleAt
// API carries a caller's closure.
//
// An event is 40 bytes on 64-bit platforms (TestEventSize): at, seq, kind
// (padded to a word), one operand slot and the packet. The slot holds the
// *Node of an arrival, a policy-delayed redispatch or a processing-delayed
// origination, the *linkDir of a departure, or the closure of an evFunc —
// a func value is a single pointer to its closure record. Every push and
// pop copies the event (lanes and the heap hold values), so its size is
// paid on every hop.
//
// The queue orders events by (at, seq). Almost every push is now+d for a
// d out of a handful of constants (0 for a departure on an unpaced link,
// the link delays, a source's send interval, the fluid tick), and a
// shard's clock and seq only move forward, so the pushes of one delay
// are already in (at, seq) order among themselves. The queue exploits
// that: a few FIFO rings — lanes, each tagged with the delay class it
// was opened for — sit in front of a binary heap that takes whatever no
// lane will.
//
// Invariant: within a lane at is non-decreasing and seq strictly
// increasing from head to tail (push checks at against the lane's tail;
// seq increases with every push the shard makes). Each lane is therefore
// sorted by (at, seq), its head is its minimum, and the smallest of the
// lane heads and the heap top is the global minimum — the pop sequence is
// exactly the one a single heap yields, and which structure held an
// event is invisible outside this file.
//
// A lane takes only pushes of its own class, not any event that happens
// to fit behind its tail: a 20 ms fluid tick appended to the 1 ms lane
// would raise that lane's tail 20 ms into the future and lock every 1 ms
// push out of it until the tick drained.
//
// Class 0, a push at the shard clock, has the zero lane, which popDue
// serves without a scan while tie is false. Every other push lies beyond
// the clock, so an event elsewhere at the zero lane's instant was pushed
// at an earlier instant or merged at the last barrier: its seq is below
// every zero-lane one, and the zero lane's head is the minimum unless a
// lane head or the heap top shares its instant. Only a lane or heap pop
// moves the clock onto an instant with events left at it (a clock jump
// leaves none), and the scan it runs sets tie to whether one is left.

type eventKind uint8

const (
	evFunc    eventKind = iota // run fn()
	evArrive                   // pkt arrives at node (link propagation done)
	evDepart                   // dir finished serializing its current packet
	evDelayed                  // policy-delayed pkt resumes dispatch at node
	evProc                     // processing-delayed pkt originates at node
)

type event struct {
	at   int64 // virtual time, Unix nanoseconds (see Simulator.timeAt)
	seq  uint64
	kind eventKind
	// obj is the operand kind picks: *Node, *linkDir or a closure. Only
	// the constructors below write it and only dispatchEvent reads it. It
	// is an unsafe.Pointer, not a uintptr, so the collector scans it like
	// any typed pointer field: a queued event keeps its node, its link
	// direction or its closure record (and everything the closure
	// captured) alive.
	obj unsafe.Pointer
	pkt *Packet
}

// nodeEvent is an event of kind evArrive, evDelayed or evProc: p at n.
func nodeEvent(kind eventKind, n *Node, p *Packet) event {
	return event{kind: kind, obj: unsafe.Pointer(n), pkt: p}
}

// departEvent is d's serialization of p completing.
func departEvent(d *linkDir, p *Packet) event {
	return event{kind: evDepart, obj: unsafe.Pointer(d), pkt: p}
}

// funcEvent runs fn. The slot takes the func value's one word, the
// pointer to its closure record; dispatchEvent reads the word back as a
// func value.
func funcEvent(fn func()) event {
	return event{kind: evFunc, obj: *(*unsafe.Pointer)(unsafe.Pointer(&fn))}
}

// laneCount caps how many lanes a queue opens (it opens them on demand,
// so a shard scans only as many as it ever had classes live at once).
// Measured on eval.RunBackbone at the sim-backbone size, where the core
// shard merges arrivals over 2-30 ms links and peaks at 11 live lanes:
// a cap of 4 leaves 51.9 % of pushes to the heap, 8 leaves 7.2 %, 12 and
// up leave none (2.88 M pushes). sim-metro peaks at 3 lanes per shard
// (3.6 M pushes, none to the heap). E10 (-realproto), whose jittered
// simnet timers rarely repeat a delay, keeps 94.5 % on lanes at 16 and
// 99.0 % at 32 — its queues hold a few events, so the heap is cheap there.
const laneCount = 16

// mailboxClass tags cross-shard arrivals. mergeIncoming pushes each
// barrier's batch sorted by at, so a batch is monotone like a constant
// delay; a batch that starts before the previous one ended fails that
// lane's tail check and gets a lane of its own. Local delays are >= 0,
// so -1 is free.
const mailboxClass = -1

// lane is a FIFO ring of events sorted by (at, seq), held by value: a
// push and a pop each copy one event (the layout above).
type lane struct {
	class int64   // the delay (at - now at push time) this lane accepts
	tail  int64   // at of the newest event; meaningful while n > 0
	buf   []event // ring; len is zero or a power of two
	head  int
	n     int
}

func (l *lane) push(ev *event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = *ev
	l.n++
	l.tail = ev.at
}

func (l *lane) grow() {
	buf := make([]event, max(16, 2*len(l.buf)))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

func (l *lane) pop(ev *event) {
	*ev = l.buf[l.head]
	l.buf[l.head] = event{} // drop obj/pkt references for the GC
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// eventQueue is a priority queue ordered by (at, seq): earliest first,
// FIFO among simultaneous events. Callers push with strictly increasing
// seq. Values live inline in the rings and the heap slice — no per-event
// allocation, no interface boxing.
type eventQueue struct {
	zero  lane           // class 0: at equals the shard clock
	lanes []lane         // opened on demand, at most laneCount
	h     minHeap[event] // events no lane would take
	tie   bool           // a lane head or the heap top may share the zero lane's instant
	// Pushes a lane / the heap took (netem_queue_pushes_total).
	inLane, inHeap uint64
}

func (q *eventQueue) len() int {
	n := len(q.h) + q.zero.n
	for i := range q.lanes {
		n += q.lanes[i].n
	}
	return n
}

// push enqueues *ev, whose delay class is class: ev.at minus the shard
// clock for a local schedule, mailboxClass for a merged arrival. Any
// class but 0 must lie beyond the clock (the zero lane's order argument).
func (q *eventQueue) push(ev *event, class int64) {
	if l := q.laneFor(class, ev.at); l != nil {
		l.push(ev)
		q.inLane++
		return
	}
	q.h.push(*ev, eventBefore)
	q.inHeap++
}

// laneFor picks the lane for a push of class class at time at: the zero
// lane, else one of its class whose tail at does not precede, else one
// re-tagged for it — an empty lane before a new one, which keeps popDue's
// scan as short as the most classes ever live at once; nil once
// laneCount are live.
func (q *eventQueue) laneFor(class, at int64) *lane {
	if class == 0 {
		return &q.zero
	}
	for i := range q.lanes {
		if l := &q.lanes[i]; l.class == class && (l.n == 0 || l.tail <= at) {
			return l
		}
	}
	for i := range q.lanes {
		if l := &q.lanes[i]; l.n == 0 {
			l.class = class
			return l
		}
	}
	if len(q.lanes) < laneCount {
		q.lanes = append(q.lanes, lane{class: class})
		return &q.lanes[len(q.lanes)-1]
	}
	return nil
}

// front locates the earliest event: the index of the lane whose head it
// is, len(q.lanes) for the heap top or -1 for the zero lane's head; ev
// is nil when the queue is empty. tie reports that another lane head or
// the heap top shares ev's instant.
func (q *eventQueue) front() (src int, ev *event, tie bool) {
	src = len(q.lanes)
	if len(q.h) > 0 {
		ev = &q.h[0]
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		switch c := &l.buf[l.head]; {
		case ev == nil || c.at < ev.at:
			src, ev, tie = i, c, false
		case c.at == ev.at:
			tie = true
			if c.seq < ev.seq {
				src, ev = i, c
			}
		}
	}
	if z := &q.zero; z.n > 0 && (ev == nil || z.buf[z.head].at < ev.at) {
		src, ev, tie = -1, &z.buf[z.head], false
	}
	return src, ev, tie
}

// popDue removes the earliest event into *ev if its timestamp is at most
// last; it reports false, and removes nothing, when the queue is empty or
// its earliest event lies beyond last. Events move by pointer: returned by
// value, the event bounced through two more stack slots, and a pop right
// after a zero-delay push stalled on them.
func (q *eventQueue) popDue(last int64, ev *event) bool {
	if z := &q.zero; z.n > 0 && !q.tie && z.buf[z.head].at <= last {
		z.pop(ev)
		return true
	}
	src, head, tie := q.front()
	if head == nil || head.at > last {
		return false
	}
	switch {
	case src < 0:
		q.zero.pop(ev)
	case src == len(q.lanes):
		*ev = q.h.pop(eventBefore)
		tie = tie || len(q.h) > 0 && q.h[0].at == ev.at
	default:
		l := &q.lanes[src]
		l.pop(ev)
		tie = tie || l.n > 0 && l.buf[l.head].at == ev.at
	}
	q.tie = tie
	return true
}

// eventBefore is the queue's order: (at, seq).
func eventBefore(a, b *event) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// minHeap is a binary min-heap under the less its callers pass: the
// event queue's overflow and Dijkstra's frontier. pop clears the slot it
// vacates, so a popped element's pointers do not outlive it.
type minHeap[T any] []T

func (h *minHeap[T]) push(x T, less func(a, b *T) bool) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *minHeap[T]) pop(less func(a, b *T) bool) T {
	s, n := *h, len(*h)-1
	top := s[0]
	s[0], s[n] = s[n], *new(T)
	*h = s[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && less(&s[l], &s[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && less(&s[r], &s[m]) {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// dispatchEvent runs one popped event, reading its operand slot as the
// type its kind was built with. Shard-local: every operand (node, link
// direction) belongs to the shard that queued the event.
func (sh *shard) dispatchEvent(ev *event) {
	switch ev.kind {
	case evFunc:
		(*(*func())(unsafe.Pointer(&ev.obj)))()
	case evArrive:
		_ = (*Node)(ev.obj).dispatch(ev.pkt, false)
	case evDepart:
		(*linkDir)(ev.obj).depart(ev.pkt)
	case evDelayed:
		_ = (*Node)(ev.obj).route(ev.pkt, false)
	case evProc:
		_ = (*Node)(ev.obj).dispatch(ev.pkt, true)
	}
}
