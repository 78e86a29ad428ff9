package netem

import "netneutral/internal/obs"

// The event loop stores typed event values, never closures or boxed
// interfaces: the hot-path events (link departure, link arrival,
// policy-delayed redispatch) carry their operands in struct fields, so a
// forwarded packet costs no allocation per hop; only the public
// Schedule/ScheduleAt API still wraps arbitrary callbacks.
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
	node *Node
	pkt  *Packet
	dir  *linkDir
	fn   func()
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

// lane is a FIFO ring of events sorted by (at, seq).
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
	l.buf[l.head] = event{} // drop pkt/fn references for the GC
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// eventQueue is a priority queue ordered by (at, seq): earliest first,
// FIFO among simultaneous events. Callers push with strictly increasing
// seq. Values live inline in the rings and the heap slice — no per-event
// pointer, no interface boxing.
type eventQueue struct {
	lanes  []lane  // opened on demand, at most laneCount
	h      []event // binary min-heap: events no lane would take
	inLane *obs.Counter
	inHeap *obs.Counter
}

func (q *eventQueue) len() int {
	n := len(q.h)
	for i := range q.lanes {
		n += q.lanes[i].n
	}
	return n
}

// push enqueues *ev, whose delay class is class: ev.at minus the shard
// clock for a local schedule, mailboxClass for a merged arrival. It joins
// a lane of its class whose tail it does not precede, else a spare lane,
// else the heap.
func (q *eventQueue) push(ev *event, class int64) {
	for i := range q.lanes {
		if l := &q.lanes[i]; l.class == class && (l.n == 0 || l.tail <= ev.at) {
			l.push(ev)
			q.inLane.Inc()
			return
		}
	}
	if l := q.spareLane(); l != nil {
		l.class = class
		l.push(ev)
		q.inLane.Inc()
		return
	}
	q.heapPush(*ev)
	q.inHeap.Inc()
}

// spareLane finds a lane to re-tag for a class that has none it can
// join: an empty one, else a new one; nil once laneCount are open and
// live. Re-using before opening keeps the scan in popDue as short as the
// most classes the shard ever had live at once.
func (q *eventQueue) spareLane() *lane {
	for i := range q.lanes {
		if l := &q.lanes[i]; l.n == 0 {
			return l
		}
	}
	if len(q.lanes) < laneCount {
		q.lanes = append(q.lanes, lane{})
		return &q.lanes[len(q.lanes)-1]
	}
	return nil
}

// front locates the earliest event: the index of the lane whose head it
// is, or len(q.lanes) for the heap top; ev is nil when the queue is empty.
func (q *eventQueue) front() (src int, ev *event) {
	src = len(q.lanes)
	if len(q.h) > 0 {
		ev = &q.h[0]
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		if c := &l.buf[l.head]; ev == nil || c.at < ev.at || c.at == ev.at && c.seq < ev.seq {
			src, ev = i, c
		}
	}
	return src, ev
}

// minAt is the timestamp of the earliest event. The queue must not be
// empty.
func (q *eventQueue) minAt() int64 {
	_, ev := q.front()
	return ev.at
}

// popDue removes the earliest event into *ev if its timestamp is at most
// last; it reports false, and removes nothing, when the queue is empty or
// its earliest event lies beyond last. Events move by pointer: returned by
// value, the 56 bytes bounced through two more stack slots, and a pop right
// after a zero-delay push stalled on them.
func (q *eventQueue) popDue(last int64, ev *event) bool {
	src, head := q.front()
	if head == nil || head.at > last {
		return false
	}
	if src == len(q.lanes) {
		*ev = q.heapPop()
	} else {
		q.lanes[src].pop(ev)
	}
	return true
}

func (q *eventQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *eventQueue) heapPush(ev event) {
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *eventQueue) heapPop() event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = event{} // drop pkt/fn references for the GC
	q.h = q.h[:n]
	q.siftDown(0)
	return top
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}

// dispatchEvent runs one popped event. Shard-local: every operand (node,
// link direction) belongs to the shard that queued the event.
func (sh *shard) dispatchEvent(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evArrive:
		_ = ev.node.dispatch(ev.pkt, false)
	case evDepart:
		ev.dir.depart(ev.pkt)
	case evDelayed:
		_ = ev.node.dispatchAfterPolicy(ev.pkt)
	case evProc:
		_ = ev.node.dispatch(ev.pkt, true)
	}
}
