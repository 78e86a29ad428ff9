// Package simnet bridges ordinary blocking Go code onto the netem
// discrete-event simulator: goroutines block in net.Conn / net.PacketConn
// calls while a driver advances virtual time, so unmodified protocol
// stacks (net/http, the dnssim resolver protocol, the endhost shim) run
// over the emulated metro without knowing it is not a real network.
//
// # Execution model
//
// A Net wraps an unsharded *netem.Simulator. Application goroutines are
// registered with Go and synchronize on conns created by ListenUDP /
// DialUDP / ListenStream / DialStream. Run drives the whole system: it
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
// that the package never sees directly.
package simnet

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/obs"
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

	// stats: atomics, not mu-guarded, so registry CounterFuncs can read
	// them from a barrier callback that fires while the driver holds mu.
	wakes  atomic.Uint64
	steps  atomic.Uint64
	spinNs atomic.Int64
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

// Sim returns the underlying simulator.
func (n *Net) Sim() *netem.Simulator { return n.sim }

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

// parkTimer registers a virtual-time wakeup for w at the given instant.
// Callers hold mu and have set w.parked.
func (n *Net) parkTimer(w *waiter, at time.Time) {
	n.timerSeq++
	n.timers.push(timerEntry{at: at, seq: n.timerSeq, w: w, gen: w.gen})
}

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
	w := newWaiter()
	w.parked = true
	w.gen++
	n.parkTimer(w, n.sim.Now().Add(d))
	n.await(w)
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
	for !pred() {
		w := newWaiter()
		w.parked = true
		w.gen++
		n.conds = append(n.conds, condWaiter{w: w, pred: pred})
		n.await(w)
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
			n.wakes.Add(1)
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
		t0 := time.Now()
		time.Sleep(20 * time.Microsecond)
		n.spinNs.Add(int64(time.Since(t0)))
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
			n.steps.Add(1)
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
// is running, runnable, or syscall. States like "chan receive", "select",
// "sync.Mutex.Lock", "IO wait", and "sleep" are all blocked: the runtime
// names every non-blocked state with one of the three busy words.
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
				switch string(state) {
				case "running", "runnable", "syscall":
					busy++
				}
			}
		}
	}
	return busy
}

// Stats reports driver counters: serialized wakeups delivered, simulator
// steps taken, and cumulative real time spent sleeping in the settle
// loop. Safe from any goroutine, including registry snapshots taken
// while the driver runs.
func (n *Net) Stats() (wakes, steps uint64, spin time.Duration) {
	return n.wakes.Load(), n.steps.Load(), time.Duration(n.spinNs.Load())
}

// Instrument registers the driver's counters on reg:
//
//	simnet_wakes_total        serialized goroutine wakeups delivered
//	simnet_steps_total        simulator events single-stepped
//	simnet_spin_seconds_total real time slept in the quiescence loop
//
// Wakes and steps are deterministic for a seeded workload; the spin time
// is wall-clock and registered Volatile so it never enters deterministic
// recorder rings. The families read atomics — no driver lock — so they
// are safe to sample from barrier callbacks and live HTTP scrapes alike.
func (n *Net) Instrument(reg *obs.Registry) {
	reg.CounterFunc("simnet_wakes_total",
		"Serialized wakeups the simnet driver delivered to workload goroutines.",
		func() uint64 { return n.wakes.Load() })
	reg.CounterFunc("simnet_steps_total",
		"Simulator events the simnet driver single-stepped.",
		func() uint64 { return n.steps.Load() })
	reg.GaugeFunc("simnet_spin_seconds_total",
		"Real time the driver slept waiting for process quiescence.",
		func() float64 { return time.Duration(n.spinNs.Load()).Seconds() },
		obs.Volatile())
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
