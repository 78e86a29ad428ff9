package trafficgen

import (
	"math"
	"math/rand"
	"time"

	"netneutral/internal/netem"
)

// App enumerates the application shapes the statistical adversary
// (package dpi) fingerprints. Each shape is defined by its packet-size
// and inter-arrival structure, not its port or payload — the properties
// that survive encryption.
type App uint8

// Application shapes.
const (
	// AppVoIP is a G.711-like call: 160-byte frames every 20ms with
	// small jitter — constant rate, constant size.
	AppVoIP App = iota
	// AppVideo is streaming video: on/off bursts of large frames (a
	// buffer fill every few hundred ms), highly bursty.
	AppVideo
	// AppBulk is a bulk transfer: near-MTU packets at a steady high
	// rate.
	AppBulk
	// AppWeb is web browsing: Poisson-arriving heavy-tailed object
	// fetches, mixed sizes.
	AppWeb
)

// NumApps is the number of application shapes.
const NumApps = 4

var appNames = [...]string{"voip", "video", "bulk", "web"}

func (a App) String() string {
	if int(a) < len(appNames) {
		return appNames[a]
	}
	return "app?"
}

// Port returns the canonical plaintext UDP destination port for the
// app — what a port-rule ISP matches on before encryption hides it.
func (a App) Port() uint16 {
	switch a {
	case AppVoIP:
		return 7078
	case AppVideo:
		return 8554
	case AppBulk:
		return 6881
	default:
		return 80
	}
}

// AppSource schedules one flow of app-shaped emissions on a simulator.
// Rng supplies the per-flow jitter that keeps flows of one class
// statistically similar but not identical; every source self-
// reschedules, so a flow costs one pending event regardless of length.
type AppSource struct {
	App App
	Rng *rand.Rand
}

// Run schedules emissions on the scheduling context (a simulator, or a
// node for shard-pinned flows) for duration d starting after a small
// random phase offset; emit receives the per-flow sequence number and
// the application payload size in bytes.
func (s AppSource) Run(on netem.Context, d time.Duration, emit func(seq uint64, size int)) {
	st := s.state(on)
	end := on.Now().Add(d)
	drive(on, st.phase(), st, func(uint64) bool { return on.Now().After(end) }, emit)
}

// RunN schedules a finite burst of exactly n app-shaped emissions (the
// same size/gap process as Run, bounded by count instead of time): the
// short app-imitating probe flows of the naive audit strategy.
func (s AppSource) RunN(on netem.Context, n int, emit func(seq uint64, size int)) {
	st := s.state(on)
	drive(on, st.phase(), st, func(seq uint64) bool { return seq >= uint64(n) }, emit)
}

func (s AppSource) state(on netem.Context) *appState {
	rng := s.Rng
	if rng == nil {
		rng = on.Rand()
	}
	return &appState{app: s.App, rng: rng}
}

// shape is one flow's (size, gap) process.
type shape interface {
	size() int
	gap() time.Duration
}

// drive is the emission loop every app-shaped and control flow runs: the
// first step fires after first; each step ends the flow once stop holds
// for its sequence number, and otherwise emits the next size and
// reschedules itself after the next gap — one pending event per flow.
func drive(on netem.Context, first time.Duration, sh shape, stop func(seq uint64) bool, emit func(seq uint64, size int)) {
	var seq uint64
	var step func()
	step = func() {
		if stop(seq) {
			return
		}
		emit(seq, sh.size())
		seq++
		on.Schedule(sh.gap(), step)
	}
	on.Schedule(first, step)
}

// appState produces the (size, gap) sequence for one flow.
type appState struct {
	app App
	rng *rand.Rand

	burstLeft int // video/web: packets remaining in the current burst
}

// phase draws the random offset of the flow's first emission.
func (st *appState) phase() time.Duration {
	return time.Duration(st.rng.Int63n(int64(20 * time.Millisecond)))
}

func (st *appState) size() int {
	r := st.rng
	switch st.app {
	case AppVoIP:
		return 160
	case AppVideo:
		return 1200
	case AppBulk:
		return 1250 + r.Intn(80)
	default: // AppWeb: heavy-tailed object pieces
		if st.burstLeft == 0 {
			return 300 // request-sized
		}
		return 300 + r.Intn(1000)
	}
}

// gap returns the wait before the next emission, advancing burst state.
func (st *appState) gap() time.Duration {
	r := st.rng
	switch st.app {
	case AppVoIP:
		return 18*time.Millisecond + time.Duration(r.Int63n(int64(4*time.Millisecond)))
	case AppVideo:
		if st.burstLeft == 0 {
			st.burstLeft = 12 + r.Intn(16)
		}
		st.burstLeft--
		if st.burstLeft == 0 {
			// Buffer refilled: go quiet until the next burst.
			return 150*time.Millisecond + time.Duration(r.Int63n(int64(250*time.Millisecond)))
		}
		return 300*time.Microsecond + time.Duration(r.Int63n(int64(200*time.Microsecond)))
	case AppBulk:
		return 2700*time.Microsecond + time.Duration(r.Int63n(int64(600*time.Microsecond)))
	default: // AppWeb
		if st.burstLeft == 0 {
			st.burstLeft = 2 + int(paretoInt(r, 1.3, 28))
		}
		st.burstLeft--
		if st.burstLeft == 0 {
			// Think time before the next object.
			return time.Duration(expRand(r, 2.5) * float64(time.Second))
		}
		return 500*time.Microsecond + time.Duration(r.Int63n(int64(500*time.Microsecond)))
	}
}

// paretoInt draws a Pareto-distributed integer in [0, capN]: the
// heavy-tailed burst lengths of web objects.
func paretoInt(rng *rand.Rand, alpha float64, capN int) int {
	u := rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	n := int(math.Pow(u, -1/alpha)) - 1
	if n > capN {
		n = capN
	}
	if n < 0 {
		n = 0
	}
	return n
}
