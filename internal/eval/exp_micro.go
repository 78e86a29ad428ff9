package eval

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/e2e"
)

// processRate measures packets/second through the neutralizer the way
// the daemon runs it: one scratch, recycled per packet, cycling over pkts.
func processRate(n int, neut *core.Neutralizer, pkts ...[]byte) float64 {
	s := core.NewScratch()
	return measureRate(n, func(i int) {
		s.Reset()
		if _, err := neut.ProcessScratch(s, pkts[i%len(pkts)]); err != nil {
			panic(err)
		}
	})
}

// RunE1 measures key-setup response throughput: one RSA-512 (e=3)
// encryption plus nonce derivation per packet, exactly the per-packet
// work of the paper's 24.4 kpps experiment.
func RunE1() (*Result, error) {
	env, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		return nil, err
	}
	const n = 3000
	rate := processRate(n, env.Neut, env.SetupPkt)
	return &Result{ID: "E1", Title: "Key-setup throughput", Rows: []Row{
		{Metric: "key-setup responses", Paper: "24.4 kpps", Measured: kpps(rate),
			Note: "RSA-512 e=3 encrypt per packet; absolute value is hardware-dependent"},
	}}, nil
}

// RunE2 derives the paper's "88 million sources" figure: with an hourly
// master key, each outside source needs one key setup per hour, so
// capacity = setup rate × 3600.
func RunE2() (*Result, error) {
	env, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		return nil, err
	}
	const n = 2000
	rate := processRate(n, env.Neut, env.SetupPkt)
	perHour := rate * 3600
	return &Result{ID: "E2", Title: "Sources served per master-key epoch", Rows: []Row{
		{Metric: "epoch length", Paper: "1 hour", Measured: env.Sched.EpochLength().String(), Note: ""},
		{Metric: "sources per epoch", Paper: "88 M", Measured: fmt.Sprintf("%.1f M", perHour/1e6),
			Note: "setup rate × 3600 (paper's own derivation)"},
	}}, nil
}

// RunE3 measures the data path against vanilla forwarding as pure CPU
// cost, which isolates the crypto overhead. The I/O-bound figure — the
// paper's testbed, where per-packet I/O dominates and the ratio
// approaches 0.70 — is the benchmark's daemon-echo workload (rate_x and
// cost_x of the real neutralizerd against a plain reflector over
// loopback UDP, outputs verified). The CPU cost has two halves: the
// first packet of a flow pays what the paper's neutralizer pays on every
// packet (derive Ks, expand it, one AES block), a packet of an
// established flow finds the expanded key in the worker's cache.
func RunE3() (*Result, error) {
	env, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		return nil, err
	}
	// CPU-only rates.
	const nData = 30000
	hitRate := processRate(nData, env.Neut, env.DataPkt)
	distinct, err := env.DataBatch(nData, nData)
	if err != nil {
		return nil, err
	}
	missRate := processRate(nData, env.Neut, distinct...)
	vp := env.FreshVanilla()
	const nVan = 200000
	i := 0
	vanRate := measureRate(nVan, func(int) {
		if i++; i%200 == 0 {
			vp = env.FreshVanilla()
		}
		if err := core.VanillaForward(vp); err != nil {
			panic(err)
		}
	})
	return &Result{ID: "E3", Title: "Data path vs vanilla forwarding", Rows: []Row{
		{Metric: "neutralized, first packet of a flow (miss) (CPU)", Paper: "422 kpps", Measured: kpps(missRate),
			Note: "hash + AES key expansion + AES-block decrypt + rewrite: the paper's per-packet work"},
		{Metric: "neutralized, established flow (hit) (CPU)", Paper: "422 kpps", Measured: kpps(hitRate),
			Note: "Ks's AES schedule from the worker's cache: AES-block decrypt + rewrite"},
		{Metric: "vanilla forwarding (CPU)", Paper: "600 kpps", Measured: kpps(vanRate),
			Note: "header validate + TTL + checksum"},
		{Metric: "ratio, first packet (CPU)", Paper: "0.70", Measured: fmt.Sprintf("%.2f", missRate/vanRate),
			Note: "pure CPU exaggerates crypto share; paper path was I/O-bound"},
		{Metric: "ratio, established flow (CPU)", Paper: "0.70", Measured: fmt.Sprintf("%.2f", hitRate/vanRate),
			Note: ""},
	}}, nil
}

// RunE4 measures the raw symmetric-crypto rate: the paper's openssl
// number (2.35M ops/s) showing the CPU's crypto capacity far exceeds the
// achieved packet rate — forwarding, not crypto, is the bottleneck.
func RunE4() (*Result, error) {
	key := aesutil.Key{1}
	data := make([]byte, 16)
	const n = 2_000_000
	rate := measureRate(n, func(i int) {
		data[0] = byte(i)
		_ = aesutil.CBCMAC(key, data)
	})
	// The address-block operation as processData runs it, on either side
	// of the session cache: one block on a flow's kept schedule, and a
	// first packet's key expansion and block on the scratch's own.
	ct, err := aesutil.EncryptAddr(key, netip.MustParseAddr("10.0.0.1"), [8]byte{9})
	if err != nil {
		return nil, err
	}
	const n2 = 1_000_000
	var ek aesutil.ExpandedKey
	ek.Expand(key)
	hitRate := measureRate(n2, func(int) {
		if _, _, ok := ek.DecryptAddrX(ct); !ok {
			panic("E4: address block did not open")
		}
	})
	missRate := measureRate(n2, func(int) {
		ek.Expand(key)
		if _, _, ok := ek.DecryptAddrX(ct); !ok {
			panic("E4: address block did not open")
		}
	})
	mops := func(r float64) string { return fmt.Sprintf("%.2f M ops/s", r/1e6) }
	return &Result{ID: "E4", Title: "Raw crypto operation rate", Rows: []Row{
		{Metric: "keyed hash (AES CBC-MAC)", Paper: "2.35 M ops/s", Measured: mops(rate),
			Note: "crypto capacity ≫ packet rate, matching the paper's bottleneck analysis"},
		{Metric: "address-block decrypt, block on a keyed schedule", Paper: "2.35 M ops/s", Measured: mops(hitRate),
			Note: "one AES block per packet of an established flow"},
		{Metric: "address-block decrypt, expand + block", Paper: "2.35 M ops/s", Measured: mops(missRate),
			Note: "a flow's first packets re-key the same schedule in place, no allocation"},
	}}, nil
}

// RunA1 contrasts the chosen key-setup design (neutralizer encrypts,
// e=3) with the §3.2 alternative (neutralizer decrypts under its own
// certified key).
func RunA1() (*Result, error) {
	env, err := benchenv.NewBenchEnv(false, true)
	if err != nil {
		return nil, err
	}
	const n = 1500
	chosen := processRate(n, env.Neut, env.SetupPkt)
	alt := processRate(n, env.Neut, env.AltPkt)
	return &Result{ID: "A1", Title: "Chosen key setup vs certified-pubkey alternative", Rows: []Row{
		{Metric: "chosen design (RSA encrypt, e=3)", Paper: "-", Measured: kpps(chosen),
			Note: "extra RTT amortized over an epoch of packets"},
		{Metric: "alternative (RSA decrypt)", Paper: "-", Measured: kpps(alt),
			Note: "saves one RTT but cannot be offloaded"},
		{Metric: "chosen / alternative", Paper: "faster", Measured: fmt.Sprintf("%.1fx", chosen/alt),
			Note: "the §3.2 argument: decryption would make DoS easier"},
	}}, nil
}

// RunA2 measures the neutralizer-side cost of a key setup when the RSA
// work is offloaded to a willing customer (§3.2): stamping and forwarding
// only.
func RunA2() (*Result, error) {
	local, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		return nil, err
	}
	off, err := benchenv.NewBenchEnv(true, false)
	if err != nil {
		return nil, err
	}
	const n = 3000
	localRate := processRate(n, local.Neut, local.SetupPkt)
	offRate := processRate(n, off.Neut, off.SetupPkt)
	return &Result{ID: "A2", Title: "Offloading key-setup RSA work", Rows: []Row{
		{Metric: "local RSA encryption", Paper: "-", Measured: kpps(localRate), Note: ""},
		{Metric: "offloaded (stamp + forward)", Paper: "-", Measured: kpps(offRate),
			Note: "customer (e.g. the destination) performs the encryption"},
		{Metric: "speedup at neutralizer", Paper: ">1", Measured: fmt.Sprintf("%.1fx", offRate/localRate),
			Note: "line-speed remedy the paper proposes"},
	}}, nil
}

// A3's baseline is §5's anonymous routing in the style of Tor: telescoped
// circuit setup with, at every relay, the per-flow state and the
// private-key operation per flow that the neutralizer avoids. Relays are
// called directly and no data cell is relayed: A3 counts state and
// public-key work, not network behaviour.

var (
	errNoSuchCircuit = errors.New("onion: unknown circuit id")
	errBadCell       = errors.New("onion: malformed cell")
)

// relay is an onion router: every live circuit through it is an entry
// in its table.
type relay struct {
	id *e2e.Identity

	mu       sync.Mutex
	circuits map[uint32]*circuitHop
	nextID   uint32
	pkOps    uint64 // private-key operations: one per circuit created
}

// circuitHop is one circuit's state at one relay.
type circuitHop struct {
	key    aesutil.Key
	next   *relay // downstream relay, nil at the exit
	nextID uint32
}

func newRelay(rng io.Reader) (*relay, error) {
	id, err := e2e.NewIdentity(rng, 0)
	if err != nil {
		return nil, err
	}
	return &relay{id: id, circuits: make(map[uint32]*circuitHop)}, nil
}

// stateSize reports live circuit-table entries.
func (r *relay) stateSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.circuits)
}

// create installs a circuit hop keyed by the symmetric key sealed in ct
// under the relay's public key: one private-key operation.
func (r *relay) create(ct []byte) (uint32, error) {
	pt, err := r.id.DecryptSmall(ct)
	if err != nil || len(pt) != aesutil.KeySize {
		return 0, errBadCell
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pkOps++
	r.nextID++
	hop := &circuitHop{}
	copy(hop.key[:], pt)
	r.circuits[r.nextID] = hop
	return r.nextID, nil
}

// extend links circuit circID on to next, running the create there on
// the client's behalf (telescoping), and returns the downstream id.
func (r *relay) extend(circID uint32, next *relay, ct []byte) (uint32, error) {
	r.mu.Lock()
	hop, ok := r.circuits[circID]
	r.mu.Unlock()
	if !ok {
		return 0, errNoSuchCircuit
	}
	nextID, err := next.create(ct)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	hop.next, hop.nextID = next, nextID
	r.mu.Unlock()
	return nextID, nil
}

// teardown removes the circuit's state along the path.
func (r *relay) teardown(circID uint32) {
	r.mu.Lock()
	hop, ok := r.circuits[circID]
	delete(r.circuits, circID)
	r.mu.Unlock()
	if ok && hop.next != nil {
		hop.next.teardown(hop.nextID)
	}
}

// buildCircuit telescopes a circuit through relays and returns its
// teardown. Each hop costs the client one public-key encryption and the
// relay one private-key decryption: per circuit, that is per flow.
func buildCircuit(rng io.Reader, relays ...*relay) (func(), error) {
	var entryID, endID uint32
	for i, r := range relays {
		var k aesutil.Key
		if _, err := io.ReadFull(rng, k[:]); err != nil {
			return nil, err
		}
		ct, err := e2e.EncryptSmall(rng, r.id.Public(), k[:])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			endID, err = r.create(ct)
			entryID = endID
		} else {
			endID, err = relays[i-1].extend(endID, r, ct)
		}
		if err != nil {
			return nil, err
		}
	}
	return func() { relays[0].teardown(entryID) }, nil
}

// RunA3 stages the §5 comparison with anonymous routing: per-flow state
// and public-key operations at relays vs the neutralizer's statelessness.
func RunA3() (*Result, error) {
	relays := make([]*relay, 3)
	for i := range relays {
		r, err := newRelay(rand.Reader)
		if err != nil {
			return nil, err
		}
		relays[i] = r
	}
	const flows = 200
	start := time.Now()
	closers := make([]func(), flows)
	for i := range closers {
		c, err := buildCircuit(rand.Reader, relays...)
		if err != nil {
			return nil, err
		}
		closers[i] = c
	}
	setupDur := time.Since(start)
	var pkOps, state uint64
	for _, r := range relays {
		pkOps += r.pkOps
		state += uint64(r.stateSize())
	}

	env, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		return nil, err
	}
	// The neutralizer's equivalent of "200 flows": 200 data packets from
	// distinct conversations — no setup beyond each source's single
	// per-epoch key setup, and no state.
	processRate(flows, env.Neut, env.DataPkt)
	neutSetups := env.Neut.Stats().KeySetups.Load()

	res := &Result{ID: "A3", Title: "Neutralizer vs onion routing (3 hops)", Rows: []Row{
		{Metric: "relay PK ops for 200 flows", Paper: "-", Measured: fmt.Sprintf("%d", pkOps),
			Note: "one RSA decrypt per hop per circuit"},
		{Metric: "relay state entries", Paper: "-", Measured: fmt.Sprintf("%d", state),
			Note: "per-flow circuit tables at every relay"},
		{Metric: "circuit setup time (200 flows)", Paper: "-", Measured: setupDur.Round(time.Millisecond).String(), Note: "", Wall: true},
		{Metric: "neutralizer PK ops for same flows", Paper: "much fewer", Measured: fmt.Sprintf("%d", neutSetups),
			Note: "per source per epoch, not per flow; zero here (keys pre-derived)"},
		{Metric: "neutralizer per-flow state", Paper: "none", Measured: fmt.Sprintf("%d", env.Neut.DynAddrCount()),
			Note: "stateless data path"},
	}}
	for _, closeCircuit := range closers {
		closeCircuit()
	}
	return res, nil
}
