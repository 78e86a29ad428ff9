// Package simnet bridges ordinary blocking Go code onto the netem
// discrete-event simulator: goroutines block in socket calls while a
// driver advances virtual time, so unmodified protocol stacks (net/http
// over net.Conn streams; the dnssim resolver protocol and neutralizerd's
// transport loop over UDPConn, with *net.UDPConn's netip.AddrPort methods
// and tunnel.Conn's batch pair) run over the emulated metro without
// knowing it is not a real network.
//
// # Execution model
//
// A Net wraps an unsharded *netem.Simulator. Application goroutines are
// registered with Go and synchronize on conns created by ListenUDP /
// ListenStream / DialStream. Run drives the whole system: it
// repeatedly (1) hands the CPU to exactly one runnable blocked goroutine
// at a time and waits for the process to go idle again, then (2)
// steps the simulator one event at a time until something is runnable.
// There is one queue: a read deadline or a Sleep is an event on the
// simulator's own, ordered by (time, seq) with the packets, and a Net's
// simulator advances only inside Run. Virtual time is therefore frozen
// whenever application code runs, and every packet injection happens at a
// deterministic virtual instant in a deterministic order.
//
// # Determinism contract
//
// Runs are bit-identical for a fixed seed provided the workload keeps the
// driver's serialization meaningful: all cross-goroutine ordering must
// flow through sim-backed conns, virtual-time Sleep/deadlines, or plain
// (unbuffered or ordered) channel handoffs that resolve within one wake.
// The driver wakes goroutines one at a time and lets each run until the
// process is idle, so two goroutines never race to inject packets unless
// application code itself wakes a second injector mid-cascade and keeps
// both running — avoid that shape (standard request/response protocols,
// including net/http's background read/write loops, are fine).
//
// # Idle
//
// The driver reads "idle" off a runtime.Stack dump of every goroutine,
// taken with its lock released: a goroutine waiting for the lock is then
// woken and reads runnable. A goroutine is idle only in a state another
// goroutine must end — a channel operation or select; a sync.Cond,
// Mutex, RWMutex or WaitGroup wait; a semacquire on an fd lock (first
// frame in internal/poll); the runtime's background parks — or in IO
// wait or sleep, which wait on real time and lie outside the contract.
// Every other state is busy: running, runnable, syscall, preempted, the
// collector's waits, any state a later Go adds. A misread therefore
// stalls a run rather than stepping under a goroutine about to act. A
// goroutine in a real syscall, anywhere in the process, holds a run up
// until it returns. The dump is the one signal that covers goroutines
// the package never sees: a Read that returns to net/http's readLoop
// wakes the RoundTrip goroutine over a channel, and the server's
// connReader parks on a sync.Cond.
//
// # Wall-clock timers
//
// A wall-clock timer or sleep reads idle and ends at a host-dependent
// virtual instant, so none may fire inside a Run. Of net/http's, E10 and
// this package's HTTP tests leave every knob zero: the Transport's
// ResponseHeaderTimeout, ExpectContinueTimeout, IdleConnTimeout and
// TLSHandshakeTimeout, Client.Timeout, the Server's read, write and idle
// timeouts (a deadline from time.Now would anyway lie decades past the
// simulator's clock); no Shutdown polls. Two it arms unasked stay
// unarmed: the Transport's 50 ms wait for a write result before reusing
// a keep-alive conn, since the response cannot be read before the write
// loop posts its result and goes idle; and the Server's 500 ms
// closeWriteAndWait sleep, taken only on its 431, unsupported
// transfer-encoding and request-body-limit paths, never by a plain GET.
package simnet

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"netneutral/internal/netem"
)

// Net couples an unsharded netem.Simulator to blocking endpoints. Create one
// with New, add conns, register workload goroutines with Go, then call
// Run from the owning goroutine. All methods are safe for concurrent use
// by workload goroutines.
type Net struct {
	sim *netem.Simulator

	mu sync.Mutex // serializes every conn operation and the driver itself

	readyQ []*waiter // woken waiters awaiting their serialized dispatch
	conds  []condWaiter
	parked int // goroutines inside waitq.park

	gos     int  // registered workload goroutines still live
	running bool // a Run call is in progress

	binds    map[*netem.Node]*nodeBind
	stackBuf []byte // reused runtime.Stack scratch
}

// waiter is one parked goroutine. All fields are guarded by Net.mu; the
// channel (buffered, capacity 1) carries the wake handoff.
type waiter struct {
	ch     chan struct{}
	parked bool   // currently blocked (or committed to blocking)
	queued bool   // present in readyQ
	gen    uint64 // counts parks: a deadline event wakes only the park that scheduled it
}

type condWaiter struct {
	w    *waiter
	pred func() bool // evaluated with mu held
}

// New wraps sim, which must be unsharded (the default: every node on
// shard 0). A sharded simulator cannot host external waiters — its
// shards run ahead of each other inside an epoch — and the first conn
// operation will panic via netem's guard if sim is sharded.
func New(sim *netem.Simulator) *Net {
	return &Net{sim: sim, binds: make(map[*netem.Node]*nodeBind)}
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
	n.mu.Lock()
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
// reader already took — so callers loop on their condition. The
// deadline is an event on the simulator's queue; once this park has
// ended, the event finds a newer generation and does nothing.
func (q *waitq) park(w *waiter) {
	w.parked = true
	w.gen++
	if !q.deadline.IsZero() {
		gen := w.gen
		q.n.sim.ScheduleAt(q.deadline, func() {
			if w.parked && w.gen == gen {
				q.n.wake(w)
			}
		})
	}
	q.ws = append(q.ws, w)
	q.n.parked++
	q.n.await(w)
	q.n.parked--
	for i, r := range q.ws { // still listed when the wake was the deadline's
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

// SetReadDeadline implements net.Conn in virtual time. Every parked
// reader wakes to re-evaluate against the new deadline (re-parking under
// a fresh timer if it has not passed), so one in the virtual past,
// net/http's "aLongTimeAgo" included, fails pending reads at once with
// os.ErrDeadlineExceeded.
func (q *waitq) SetReadDeadline(t time.Time) error {
	q.n.mu.Lock()
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
	n.mu.Lock()
	n.gos++
	w := newWaiter()
	w.parked = true
	w.queued = true
	n.readyQ = append(n.readyQ, w)
	n.mu.Unlock()
	go func() {
		defer func() {
			n.mu.Lock()
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
	n.mu.Lock()
	q := waitq{n: n, deadline: n.sim.Now().Add(d)}
	q.park(newWaiter())
	n.mu.Unlock()
}

// Now returns the current virtual time. Safe from any goroutine; while a
// workload goroutine runs, virtual time is frozen, so the value is exact.
func (n *Net) Now() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sim.Now()
}

// Locked runs fn under the driver's lock. Workload goroutines use it to
// touch sim-attached state that is not itself a simnet conn — an
// endhost.Host, a netem node, experiment counters mutated by delivery
// handlers — without racing the driver. fn must not block on a simnet
// conn (that would self-deadlock); inject packets, read state, return.
func (n *Net) Locked(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn()
}

// Wait blocks until pred() reports true. pred is evaluated with the
// driver's lock held, after every simulator step — use it to wait for
// state changed by delivery handlers or other goroutines.
func (n *Net) Wait(pred func() bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q, w := waitq{n: n}, newWaiter()
	for !pred() {
		n.conds = append(n.conds, condWaiter{w: w, pred: pred})
		q.park(w)
	}
}

// Run drives the simulator until every goroutine registered with Go has
// returned. It returns a non-nil error on deadlock: goroutines still
// live, nothing runnable, and no simulator event left to wake anyone.
// Foreign daemon goroutines (an http.Server accept loop, say) may still
// be parked on conns when Run returns; closing their conns and
// listeners afterwards unblocks them.
func (n *Net) Run() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running {
		panic("simnet: Net.Run reentered")
	}
	n.running = true
	defer func() { n.running = false }()
	n.waitIdle() // goroutines started before Run, a server's accept loop say
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

// settle hands the CPU to the woken waiters one at a time, oldest
// first, and after each waits until the process is idle. Called with mu
// held, and with the process idle.
func (n *Net) settle() {
	for len(n.readyQ) > 0 {
		w := n.readyQ[0]
		n.readyQ = n.readyQ[1:]
		w.queued = false
		w.ch <- struct{}{}
		// A yield lets w take mu first; relocking then waits out its
		// critical section instead of dumping while it runs.
		n.mu.Unlock()
		runtime.Gosched()
		n.mu.Lock()
		n.waitIdle()
	}
}

// waitIdle returns once a dump finds every other goroutine idle. Called
// with mu held; it releases mu while it waits.
func (n *Net) waitIdle() {
	n.mu.Unlock()
	for spins := 1; !n.othersIdle(); spins++ {
		// Each dump stops the world. On a loaded host one Gosched between
		// dumps once let a runnable goroutine wait through hundreds of
		// them, so the driver yields more often the longer it waits.
		for i := 0; i < min(spins, 16); i++ {
			runtime.Gosched()
		}
	}
	n.mu.Lock()
}

// advance steps the simulator, one event at a time, until some waiter
// is runnable. It reports false when the queue ran dry first without
// running an event.
func (n *Net) advance() bool {
	stepped := false
	for len(n.readyQ) == 0 && n.sim.Step() {
		stepped = true
		n.checkConds()
	}
	return stepped
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
	return fmt.Errorf("simnet: deadlock: %d goroutines live, %d parked (%d in Wait), no events pending (sim now %s)",
		n.gos, n.parked, len(n.conds), n.sim.Now().Format(time.RFC3339Nano))
}

// othersIdle reports whether a runtime.Stack dump finds every
// goroutine but the caller idle. Called with mu released. The first
// record is the caller's own, "running".
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

var goroutineHdr, pollFrame = []byte("goroutine "), []byte("internal/poll.")

// countBusy counts the goroutine records in a runtime.Stack dump that
// are not idle. A record is idle only in a state another goroutine must
// end, or one on real time (IO wait, sleep); a semacquire is idle only
// on an fd lock, its first frame in internal/poll. Any other state is
// busy, a semacquire whose elided runtime frames wait for a GC cycle
// included.
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
		lb := bytes.IndexByte(line, '[')
		if !bytes.HasPrefix(line, goroutineHdr) || lb < 0 {
			continue
		}
		state := line[lb+1:]
		if end := bytes.IndexAny(state, ",]"); end >= 0 {
			state = state[:end]
		}
		switch string(bytes.TrimSuffix(state, []byte(" (scan)"))) {
		case "chan receive", "chan send", "select",
			"chan receive (nil chan)", "chan send (nil chan)", "select (no cases)",
			"sync.Cond.Wait", "sync.Mutex.Lock", "sync.RWMutex.RLock", "sync.RWMutex.Lock", "sync.WaitGroup.Wait",
			"IO wait", "sleep",
			"GC worker (idle)", "finalizer wait", "GC sweep wait", "GC scavenge wait", "force gc (idle)":
		case "semacquire":
			if !bytes.HasPrefix(dump, pollFrame) {
				busy++
			}
		default:
			busy++
		}
	}
	return busy
}
