package netem

// The event loop stores typed event values in a growable slice-backed
// binary heap. The hot-path events (link departure, link arrival,
// policy-delayed redispatch) carry their operands in struct fields, so a
// forwarded packet costs no closure or heap allocation per hop; only the
// public Schedule/ScheduleAt API still wraps arbitrary callbacks.

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

// eventQueue is a binary min-heap ordered by (at, seq): earliest first,
// FIFO among simultaneous events. Values live inline in the slice — no
// per-event pointer, no interface boxing.
type eventQueue struct {
	h []event
}

func (q *eventQueue) len() int { return len(q.h) }

func (q *eventQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *eventQueue) push(ev event) {
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

func (q *eventQueue) pop() event {
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
		_ = ev.node.dispatchAfterPolicy(ev.pkt, false)
	case evProc:
		_ = ev.node.dispatch(ev.pkt, true)
	}
}
