// Package simnet bridges ordinary blocking Go code onto the netem
// discrete-event simulator: goroutines block in socket calls while a
// driver advances virtual time, so unmodified protocol stacks (net/http
// over net.Conn streams; the dnssim resolver protocol and neutralizerd's
// transport loop over UDPConn, which has *net.UDPConn's netip.AddrPort
// methods) run over the emulated metro without knowing it is not a real
// network.
//
// # Execution model
//
// A Net wraps an unsharded *netem.Simulator. Application goroutines are
// registered with Go and synchronize on conns created by ListenUDP /
// ListenStream / DialStream. Run drives the whole system: it
// repeatedly (1) hands the CPU to exactly one runnable blocked goroutine
// at a time and waits for the process to go quiescent again, then (2)
// advances the simulator by one event (or to the next virtual-time
// deadline) when nothing is runnable. Virtual time is therefore frozen
// whenever application code runs, and every packet injection happens at a
// deterministic virtual instant in a deterministic order.
//
// # Determinism contract
//
// Runs are bit-identical for a fixed seed provided the workload keeps the
// driver's serialization meaningful: all cross-goroutine ordering must
// flow through sim-backed conns, virtual-time Sleep/deadlines, or plain
// (unbuffered or ordered) channel handoffs that resolve within one wake.
// Goroutines woken by the driver run to quiescence one at a time, so two
// goroutines never race to inject packets unless application code itself
// wakes a second injector mid-cascade and keeps both running — avoid
// that shape (standard request/response protocols, including net/http's
// background read/write loops, are fine).
//
// The driver detects quiescence by parsing runtime.Stack: a goroutine
// blocked in channel receive, select, or mutex wait is idle; anything
// running, runnable, or in a syscall is still working. This is the only
// portable signal that covers foreign goroutines (net/http internals)
// that the package never sees directly. A cooperative hand-off (count
// the goroutines inside simnet calls, step the simulator once all of
// them are parked) cannot replace it on go1.24: a Read that returns to
// net/http's readLoop wakes the RoundTrip goroutine over a channel, and
// the server's connReader parks on a sync.Cond. Work the package
// started is then running on goroutines that no count it keeps ever
// saw enter or leave, and the simulator would step under them.
package simnet

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netneutral/internal/netem"
)

// Net couples an unsharded netem.Simulator to blocking endpoints. Create one
// with New, add conns, register workload goroutines with Go, then call
// Run from the owning goroutine. All methods are safe for concurrent use
// by workload goroutines.
type Net struct {
	sim *netem.Simulator

	// mu serializes every conn operation and the driver itself.
	// entering counts goroutines that have committed to acquiring mu but
	// may not yet be visible as runnable in a stack dump; the driver
	// treats entering != 0 as "not quiescent".
	mu       sync.Mutex
	entering atomic.Int64

	readyQ []*waiter // woken waiters awaiting their serialized dispatch
	timers timerHeap // virtual-time wakeups (deadlines, Sleep)
	conds  []condWaiter

	gos      int  // registered workload goroutines still live
	running  bool // a Run call is in progress
	timerSeq uint64

	binds    map[*netem.Node]*nodeBind
	stackBuf []byte // reused runtime.Stack scratch
}

// waiter is one parked goroutine. All fields are guarded by Net.mu; the
// channel (buffered, capacity 1) carries the wake handoff.
type waiter struct {
	ch     chan struct{}
	parked bool   // currently blocked (or committed to blocking)
	queued bool   // present in readyQ
	gen    uint64 // invalidates stale timer entries across re-parks
}

type condWaiter struct {
	w    *waiter
	pred func() bool // evaluated with mu held
}

type timerEntry struct {
	at  time.Time
	seq uint64 // FIFO among equal deadlines
	w   *waiter
	gen uint64
}

// New wraps sim, which must be unsharded (the default: every node on
// shard 0). A sharded simulator cannot host external waiters — its
// shards run ahead of each other inside an epoch — and the first conn
// operation will panic via netem's guard if sim is sharded.
func New(sim *netem.Simulator) *Net {
	return &Net{sim: sim, binds: make(map[*netem.Node]*nodeBind)}
}

// lock acquires mu from a workload goroutine, flagging the acquisition
// so the driver's quiescence check cannot miss a goroutine that is
// between "decided to act" and "visible in the stack dump".
func (n *Net) lock() {
	n.entering.Add(1)
	n.mu.Lock()
	n.entering.Add(-1)
}

func newWaiter() *waiter { return &waiter{ch: make(chan struct{}, 1)} }

// wake marks w runnable. With the driver live it enqueues for serialized
// dispatch; otherwise (setup/teardown outside Run) it signals directly.
// Callers hold mu.
func (n *Net) wake(w *waiter) {
	if !w.parked {
		return
	}
	w.parked = false
	if !n.running {
		select {
		case w.ch <- struct{}{}:
		default:
		}
		return
	}
	if !w.queued {
		w.queued = true
		n.readyQ = append(n.readyQ, w)
	}
}

// await blocks the calling goroutine until the driver (or a direct wake)
// signals w. Called with mu held and w.parked already true; returns with
// mu re-held.
func (n *Net) await(w *waiter) {
	n.mu.Unlock()
	<-w.ch
	n.entering.Add(1)
	n.mu.Lock()
	n.entering.Add(-1)
}

// waitq is the goroutines parked on one condition — a conn's readers, a
// listener's acceptors, one sleeper — oldest first, with the virtual
// deadline their wait runs under. A conn embeds it and so gets net.Conn's
// three deadline methods; the unexported ones are called with mu held.
type waitq struct {
	n        *Net
	ws       []*waiter
	deadline time.Time // zero: none
}

// expired reports whether the deadline has passed in virtual time.
func (q *waitq) expired() bool {
	return !q.deadline.IsZero() && !q.n.sim.Now().Before(q.deadline)
}

// park blocks the caller as w until a wake or the deadline. A wake says
// only "look again" — data, a moved deadline, a close, or data another
// reader already took — so callers loop on their condition.
func (q *waitq) park(w *waiter) {
	w.parked = true
	w.gen++ // entries a previous park of w left in the timer heap go stale
	if !q.deadline.IsZero() {
		q.n.timerSeq++
		q.n.timers.push(timerEntry{at: q.deadline, seq: q.n.timerSeq, w: w, gen: w.gen})
	}
	q.ws = append(q.ws, w)
	q.n.await(w)
	for i, r := range q.ws { // still listed when the wake was the timer's
		if r == w {
			q.ws = append(q.ws[:i], q.ws[i+1:]...)
			break
		}
	}
}

// wakeOne wakes the longest-parked waiter.
func (q *waitq) wakeOne() {
	if len(q.ws) > 0 {
		w := q.ws[0]
		q.ws = q.ws[1:]
		q.n.wake(w)
	}
}

// wakeAll wakes every waiter, oldest first.
func (q *waitq) wakeAll() {
	for _, w := range q.ws {
		q.n.wake(w)
	}
	q.ws = nil
}

func (q *waitq) parked() int { return len(q.ws) }

// SetReadDeadline implements net.Conn in virtual time. Every parked
// reader wakes to re-evaluate against the new deadline (re-parking under
// a fresh timer if it has not passed), so one in the virtual past,
// net/http's "aLongTimeAgo" included, fails pending reads at once with
// os.ErrDeadlineExceeded.
func (q *waitq) SetReadDeadline(t time.Time) error {
	q.n.lock()
	defer q.n.mu.Unlock()
	q.deadline = t
	q.wakeAll()
	return nil
}

// SetDeadline implements net.Conn: only reads ever block.
func (q *waitq) SetDeadline(t time.Time) error { return q.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn; writes never block, so it is a
// no-op.
func (q *waitq) SetWriteDeadline(time.Time) error { return nil }

// Go registers fn as a workload goroutine. The goroutine starts parked;
// Run releases registered goroutines one at a time in registration
// order, which pins the initial packet-injection order regardless of OS
// scheduling. Run returns once every registered goroutine has finished.
func (n *Net) Go(fn func()) {
	n.lock()
	n.gos++
	w := newWaiter()
	w.parked = true
	w.queued = true
	n.readyQ = append(n.readyQ, w)
	n.mu.Unlock()
	go func() {
		defer func() {
			n.lock()
			n.gos--
			n.mu.Unlock()
		}()
		<-w.ch
		fn()
	}()
}

// Sleep blocks the calling goroutine for d of virtual time. Must be
// called from a goroutine the driver manages (registered via Go, or
// transitively woken by one) while Run is active.
func (n *Net) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	n.lock()
	q := waitq{n: n, deadline: n.sim.Now().Add(d)}
	q.park(newWaiter())
	n.mu.Unlock()
}

// Now returns the current virtual time. Safe from any goroutine; while a
// workload goroutine runs, virtual time is frozen, so the value is exact.
func (n *Net) Now() time.Time {
	n.lock()
	defer n.mu.Unlock()
	return n.sim.Now()
}

// Locked runs fn under the driver's lock. Workload goroutines use it to
// touch sim-attached state that is not itself a simnet conn — an
// endhost.Host, a netem node, experiment counters mutated by delivery
// handlers — without racing the driver. fn must not block on a simnet
// conn (that would self-deadlock); inject packets, read state, return.
func (n *Net) Locked(fn func()) {
	n.lock()
	defer n.mu.Unlock()
	fn()
}

// Wait blocks until pred() reports true. pred is evaluated with the
// driver's lock held, after every simulator step — use it to wait for
// state changed by delivery handlers or other goroutines.
func (n *Net) Wait(pred func() bool) {
	n.lock()
	defer n.mu.Unlock()
	q, w := waitq{n: n}, newWaiter()
	for !pred() {
		n.conds = append(n.conds, condWaiter{w: w, pred: pred})
		q.park(w)
	}
}

// Run drives the simulator until every goroutine registered with Go has
// returned. It returns a non-nil error on deadlock: goroutines still
// live, nothing runnable, and no simulator event or timer left to wake
// anyone. Foreign daemon goroutines (an http.Server accept loop, say)
// may still be parked on conns when Run returns; closing their conns
// and listeners afterwards unblocks them.
func (n *Net) Run() error {
	n.lock()
	defer n.mu.Unlock()
	if n.running {
		panic("simnet: Net.Run reentered")
	}
	n.running = true
	defer func() { n.running = false }()
	for {
		n.settle()
		n.checkConds()
		if len(n.readyQ) > 0 {
			continue
		}
		if n.gos == 0 {
			return nil
		}
		if !n.advance() {
			return n.deadlockError()
		}
	}
}

// settle dispatches woken waiters one at a time, waiting for full
// process quiescence between dispatches, and returns only when nothing
// is runnable anywhere. Called with mu held; releases and reacquires it
// while polling.
func (n *Net) settle() {
	spins := 0
	for {
		if n.entering.Load() != 0 {
			n.relax(&spins)
			continue
		}
		if len(n.readyQ) > 0 {
			w := n.readyQ[0]
			copy(n.readyQ, n.readyQ[1:])
			n.readyQ = n.readyQ[:len(n.readyQ)-1]
			w.queued = false
			w.ch <- struct{}{}
			n.relax(&spins)
			continue
		}
		if !n.othersIdle() {
			n.relax(&spins)
			continue
		}
		// Idle per the stack dump — but a goroutine may have slipped into
		// the entering window or the readyQ between the dump and now.
		if n.entering.Load() != 0 || len(n.readyQ) > 0 {
			continue
		}
		return
	}
}

// relax yields the lock so woken or entering goroutines can run, with an
// occasional real sleep to avoid burning a core against the scheduler.
func (n *Net) relax(spins *int) {
	*spins++
	n.mu.Unlock()
	if *spins%512 == 0 {
		time.Sleep(20 * time.Microsecond)
	} else {
		runtime.Gosched()
	}
	n.mu.Lock()
}

// advance moves the simulation forward — one event step or one batch of
// due timers per iteration — until some waiter becomes runnable. It
// reports false when there is nothing left to advance.
func (n *Net) advance() bool {
	progress := false
	for len(n.readyQ) == 0 {
		tEv, okEv := n.sim.NextEventAt()
		tTm, okTm := n.timers.peekLive()
		switch {
		case okEv && (!okTm || !tEv.After(tTm)):
			n.sim.Step()
			progress = true
		case okTm:
			if tTm.After(n.sim.Now()) {
				n.sim.RunUntil(tTm)
			}
			n.fireTimers(tTm)
			progress = true
		default:
			return progress
		}
		n.checkConds()
	}
	return true
}

// fireTimers wakes every live timer due at or before t.
func (n *Net) fireTimers(t time.Time) {
	for len(n.timers) > 0 && !n.timers[0].at.After(t) {
		e := n.timers.pop()
		if e.w.parked && e.w.gen == e.gen {
			n.wake(e.w)
		}
	}
}

// checkConds wakes Wait-ers whose predicates now hold.
func (n *Net) checkConds() {
	kept := n.conds[:0]
	for _, cw := range n.conds {
		if cw.w.parked && cw.pred() {
			n.wake(cw.w)
			continue
		}
		if cw.w.parked {
			kept = append(kept, cw)
		}
	}
	n.conds = kept
}

func (n *Net) deadlockError() error {
	parkedReaders := 0
	for _, b := range n.binds {
		parkedReaders += b.parkedWaiters()
	}
	return fmt.Errorf("simnet: deadlock: %d goroutines live, %d conn waiters parked, %d cond waiters, no events or timers pending (sim now %s)",
		n.gos, parkedReaders, len(n.conds), n.sim.Now().Format(time.RFC3339Nano))
}

// othersIdle reports whether every goroutine in the process except the
// caller is blocked (chan receive, select, IO wait, ...). Called with mu
// held. The first record in a runtime.Stack dump is always the calling
// goroutine, so exactly one "running" record is expected.
func (n *Net) othersIdle() bool {
	var dump []byte
	for sz := 256 << 10; ; sz *= 2 {
		if cap(n.stackBuf) < sz {
			n.stackBuf = make([]byte, sz)
		}
		buf := n.stackBuf[:sz]
		m := runtime.Stack(buf, true)
		if m < len(buf) {
			dump = buf[:m]
			break
		}
	}
	return countBusy(dump) <= 1
}

var goroutineHdr = []byte("goroutine ")

// countBusy counts goroutine records in a runtime.Stack dump whose state
// is running, runnable, or syscall — or one the collector put the
// goroutine in and will take it out of unasked: an allocation made while
// a GC cycle marks can stop its goroutine as "GC assist marking", "GC
// assist wait" or "preempted", and a stack being scanned reads
// "runnable (scan)". States like "chan receive", "select",
// "sync.Mutex.Lock", "IO wait", and "sleep" are blocked.
func countBusy(dump []byte) int {
	busy := 0
	for len(dump) > 0 {
		// Records are separated by blank lines; headers look like
		// "goroutine 12 [chan receive, 3 minutes]:".
		nl := bytes.IndexByte(dump, '\n')
		var line []byte
		if nl < 0 {
			line, dump = dump, nil
		} else {
			line, dump = dump[:nl], dump[nl+1:]
		}
		if bytes.HasPrefix(line, goroutineHdr) {
			if lb := bytes.IndexByte(line, '['); lb >= 0 {
				state := line[lb+1:]
				if end := bytes.IndexAny(state, ",]"); end >= 0 {
					state = state[:end]
				}
				switch string(bytes.TrimSuffix(state, []byte(" (scan)"))) {
				case "running", "runnable", "syscall", "GC assist marking", "GC assist wait", "preempted":
					busy++
				}
			}
		}
	}
	return busy
}

// timerHeap is a min-heap on (at, seq).
type timerHeap []timerEntry

func (h timerHeap) less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *timerHeap) pop() timerEntry {
	old := *h
	e := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return e
}

func (h timerHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h.less(l, small) {
			small = l
		}
		if r < len(h) && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// peekLive returns the earliest deadline among timers whose waiter is
// still parked in the same park generation, discarding stale entries.
func (h *timerHeap) peekLive() (time.Time, bool) {
	for len(*h) > 0 {
		e := (*h)[0]
		if e.w.parked && e.w.gen == e.gen {
			return e.at, true
		}
		h.pop()
	}
	return time.Time{}, false
}
