//go:build linux

package main

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// core-flows and core-churn: internal/core driven in-process, one
// goroutine, Neutralizer.ProcessScratch over a seeded packet set the way
// the daemon's per-packet loop calls it (Reset, then ProcessScratch).

const (
	batchLen      = 4096 // packets per timed batch: a clock read costs more than one call
	flowsRing     = 4096
	flowsFlows    = 64
	churnSet      = 262144
	churnSetProbe = 8192
	setupReqs     = 64
)

// pktClass is the outcome a packet must produce.
type pktClass uint8

const (
	classFwd pktClass = iota
	classRet
	classTruncated   // cut short: DropMalformed
	classStale       // epoch outside the window: DropStaleEpoch
	classBadBlock    // random hidden block: DropBadAddrBlock
	classNotCustomer // hidden destination outside the customer net: DropNotCustomer
	nClasses
)

var classNames = [nClasses]string{"fwd", "ret", "truncated", "stale_epoch", "bad_block", "not_customer"}

// pktSet is a seeded packet set with what each packet must turn into.
type pktSet struct {
	pkts  [][]byte
	class []pktClass
	flows []flow       // the conduit each packet rides
	peers []netip.Addr // fwd: hidden customer; ret: the customer replying
	count [nClasses]int
}

func newPktSet(n int) *pktSet {
	return &pktSet{
		pkts: make([][]byte, 0, n), class: make([]pktClass, 0, n),
		flows: make([]flow, 0, n), peers: make([]netip.Addr, 0, n),
	}
}

func (s *pktSet) add(pkt []byte, cl pktClass, f flow, peer netip.Addr) {
	s.pkts = append(s.pkts, pkt)
	s.class = append(s.class, cl)
	s.flows = append(s.flows, f)
	s.peers = append(s.peers, peer)
	s.count[cl]++
}

// addOne appends one packet of the given class on flow f.
func (s *pktSet) addOne(w *world, cl pktClass, f flow, payloadLen int) error {
	cust := w.customers[w.rng.Intn(len(w.customers))]
	payload := w.randPayload(payloadLen)
	var pkt []byte
	var err error
	switch cl {
	case classFwd:
		pkt, err = w.forwardPacket(f, cust, 0, payload)
	case classRet:
		pkt, err = w.returnPacket(f, cust, payload)
	case classTruncated:
		if pkt, err = w.forwardPacket(f, cust, 0, payload); err == nil {
			pkt = pkt[:offBody+w.rng.Intn(aesutil.BlockSize)]
		}
	case classStale:
		pkt, err = w.forwardPacket(f, cust, 5, payload)
	case classBadBlock:
		if pkt, err = w.forwardPacket(f, cust, 0, payload); err == nil {
			w.rng.Read(pkt[offBody:offPayloadBlock])
		}
	case classNotCustomer:
		pkt, err = w.forwardPacket(f, randAddrIn(w.rng, outsideNet), 0, payload)
	}
	if err != nil {
		return err
	}
	s.add(pkt, cl, f, cust)
	return nil
}

// flowsSet is the core-flows ring: forward data from 64 long-lived
// flows, 64-byte payload.
func flowsSet(w *world, n int) (*pktSet, error) {
	flows := make([]flow, flowsFlows)
	for i := range flows {
		f, err := w.newFlow()
		if err != nil {
			return nil, err
		}
		flows[i] = f
	}
	s := newPktSet(n)
	for i := 0; i < n; i++ {
		if err := s.addOne(w, classFwd, flows[i%len(flows)], echoPayload); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var churnSizes = [...]int{64, 512, 1400}

// churnMix draws one class: 50 % forward, 35 % return, 15 % hostile.
func churnMix(rng *mrand.Rand) pktClass {
	switch r := rng.Intn(100); {
	case r < 50:
		return classFwd
	case r < 85:
		return classRet
	default:
		return classTruncated + pktClass(rng.Intn(int(nClasses-classTruncated)))
	}
}

// churnSetOf is the core-churn set: every packet a distinct (nonce, src)
// — one-packet flows, working set far beyond any cache — in a seeded mix
// of classes and payload sizes.
func churnSetOf(w *world, n int) (*pktSet, error) {
	s := newPktSet(n)
	for i := 0; i < n; i++ {
		f, err := w.newFlow()
		if err != nil {
			return nil, err
		}
		if err := s.addOne(w, churnMix(w.rng), f, churnSizes[w.rng.Intn(len(churnSizes))]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// uniformSet is n packets of one class, flows and sizes drawn like the
// workload's own set (for the per-class layer probes).
func uniformSet(w *world, churn bool, cl pktClass, n int) (*pktSet, error) {
	s := newPktSet(n)
	var ring []flow
	for i := 0; i < n; i++ {
		size := echoPayload
		if churn {
			size = churnSizes[w.rng.Intn(len(churnSizes))]
		}
		if churn || len(ring) < flowsFlows {
			f, err := w.newFlow()
			if err != nil {
				return nil, err
			}
			ring = append(ring, f)
		}
		if err := s.addOne(w, cl, ring[i%len(ring)], size); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// coreRig is everything a core workload needs to be ready.
type coreRig struct {
	w       *world
	neut    *core.Neutralizer
	scratch *core.Scratch
	set     *pktSet
}

func newNeutralizer(w *world) (*core.Neutralizer, error) {
	// Clock and Rand stay at their defaults, as in the daemon.
	return core.New(core.Config{Schedule: w.sched, Anycast: anycastAddr, IsCustomer: customerNet.Contains})
}

func buildCoreRig(c *runCtx, churn bool) (*coreRig, error) {
	w := newWorld(c.rng(), echoCustomers)
	neut, err := newNeutralizer(w)
	if err != nil {
		return nil, err
	}
	r := &coreRig{w: w, neut: neut, scratch: core.NewScratch()}
	switch {
	case !churn:
		r.set, err = flowsSet(w, flowsRing)
	case c.probe:
		r.set, err = churnSetOf(w, churnSetProbe)
	default:
		r.set, err = churnSetOf(w, churnSet)
	}
	return r, err
}

var classErr = [nClasses]error{
	classStale: core.ErrStaleEpoch, classBadBlock: core.ErrBadAddrBlock, classNotCustomer: core.ErrNotCustomer,
}

// verify pushes every packet of the set through the neutralizer once,
// outside any timed loop, and checks each output against its expected
// outcome class byte by byte (fixed offsets, not the decoders under
// test); then it checks stats conservation: every hostile packet landed
// in exactly one drop counter. It returns the number of wrong outcomes.
func (r *coreRig) verify(res *result) {
	before := r.neut.Stats().Snapshot()
	fail := func(i int, format string, args ...any) {
		res.Failed++
		if len(res.Errs) < 8 {
			res.Errs = append(res.Errs, fmt.Sprintf("packet %d (%s): ", i, classNames[r.set.class[i]])+fmt.Sprintf(format, args...))
		}
	}
	for i, pkt := range r.set.pkts {
		f, peer := r.set.flows[i], r.set.peers[i]
		r.scratch.Reset()
		outs, err := r.neut.ProcessScratch(r.scratch, pkt)
		switch cl := r.set.class[i]; cl {
		case classFwd, classRet:
			if err != nil || len(outs) != 1 {
				fail(i, "want one output, got %d (err %v)", len(outs), err)
				continue
			}
			out := outs[0].Pkt
			wantType, wantSrc, wantDst, off := shim.TypeDelivered, f.src, peer, offPayloadClear
			inPayload := pkt[offPayloadBlock:]
			if cl == classRet {
				wantType, wantSrc, wantDst, off = shim.TypeReturnDelivered, anycastAddr, f.src, offPayloadBlock
				inPayload = pkt[offPayloadClear:]
			}
			switch {
			case len(out) < off || out[offIPProto] != wire.ProtoShim || shim.Type(out[offShim]) != wantType:
				fail(i, "output is not a %v shim packet", wantType)
			case addrAt(out, offIPSrc) != wantSrc || addrAt(out, offIPDst) != wantDst:
				fail(i, "output %v→%v, want %v→%v", addrAt(out, offIPSrc), addrAt(out, offIPDst), wantSrc, wantDst)
			case !bytes.Equal(out[offShim+8:offBody], f.nonce[:]) || !bytes.Equal(out[off:], inPayload):
				fail(i, "nonce or payload not preserved")
			case cl == classFwd && addrAt(out, offBody) != anycastAddr:
				fail(i, "delivered packet names %v as return address", addrAt(out, offBody))
			case cl == classRet && !opensTo(f.ks, out[offBody:offPayloadBlock], peer):
				fail(i, "hidden source does not open to %v under Ks", peer)
			}
		case classTruncated:
			if err == nil {
				fail(i, "accepted")
			}
		default:
			if !errors.Is(err, classErr[cl]) {
				fail(i, "got %v, want %v", err, classErr[cl])
			}
		}
	}
	d := statsDelta(before, r.neut.Stats().Snapshot())
	n := r.set.count
	want := core.StatsSnapshot{
		DataForwarded: uint64(n[classFwd]), ReturnForwarded: uint64(n[classRet]),
		DropMalformed: uint64(n[classTruncated]), DropStaleEpoch: uint64(n[classStale]),
		DropBadAddrBlock: uint64(n[classBadBlock]), DropNotCustomer: uint64(n[classNotCustomer]),
	}
	if d != want {
		res.Failed++
		res.Errs = append(res.Errs, fmt.Sprintf("stats conservation: counters moved by %+v, want %+v", d, want))
	}
	res.Attempted += int64(len(r.set.pkts))
	res.Layers["core.drops_malformed"] = float64(d.DropMalformed)
	res.Layers["core.drops_stale_epoch"] = float64(d.DropStaleEpoch)
	res.Layers["core.drops_bad_addr_block"] = float64(d.DropBadAddrBlock)
	res.Layers["core.drops_not_customer"] = float64(d.DropNotCustomer)
}

// opensTo decrypts a hidden address block with the standard library
// cipher and compares the address.
func opensTo(ks aesutil.Key, block []byte, want netip.Addr) bool {
	blk, err := aes.NewCipher(ks[:])
	if err != nil {
		return false
	}
	var pt [16]byte
	blk.Decrypt(pt[:], block)
	return addrAt(pt[:], 0) == want
}

func statsDelta(a, b core.StatsSnapshot) core.StatsSnapshot {
	return core.StatsSnapshot{
		KeySetups: b.KeySetups - a.KeySetups, KeySetupsOffload: b.KeySetupsOffload - a.KeySetupsOffload,
		AltSetups: b.AltSetups - a.AltSetups, DataForwarded: b.DataForwarded - a.DataForwarded,
		ReturnForwarded: b.ReturnForwarded - a.ReturnForwarded, GrantsStamped: b.GrantsStamped - a.GrantsStamped,
		KeyFetches: b.KeyFetches - a.KeyFetches, DropStaleEpoch: b.DropStaleEpoch - a.DropStaleEpoch,
		DropBadAddrBlock: b.DropBadAddrBlock - a.DropBadAddrBlock, DropNotCustomer: b.DropNotCustomer - a.DropNotCustomer,
		DropMalformed: b.DropMalformed - a.DropMalformed, DynAddrsAllocated: b.DynAddrsAllocated - a.DynAddrsAllocated,
	}
}

// cursor walks a packet set in whole batches, wrapping around.
type cursor struct {
	set *pktSet
	i   int
}

// slice runs ProcessScratch over whole batches until dur has passed and
// returns packets processed, packets that returned an error, and the
// elapsed time. With a tracer each batch is one span.
func (r *coreRig) slice(cur *cursor, dur time.Duration, tr *tracer, parent int) (pkts, errs int, elapsed time.Duration) {
	pk := cur.set.pkts
	t0 := time.Now()
	for {
		b0 := time.Now()
		for k := 0; k < batchLen; k++ {
			r.scratch.Reset()
			if _, err := r.neut.ProcessScratch(r.scratch, pk[cur.i]); err != nil {
				errs++
			}
			if cur.i++; cur.i == len(pk) {
				cur.i = 0
			}
		}
		pkts += batchLen
		now := time.Now()
		tr.add(parent, "ProcessScratch×4096", "core", b0, now)
		if elapsed = now.Sub(t0); elapsed >= dur {
			return pkts, errs, elapsed
		}
	}
}

// vanillaRing is the baseline the paper compares against: same-size
// plain packets through core.VanillaForward.
type vanillaRing struct {
	pristine, work [][]byte
}

func newVanillaRing(set *pktSet) (*vanillaRing, error) {
	v := &vanillaRing{}
	for i := 0; i < batchLen; i++ {
		k := i % len(set.pkts)
		pkt, err := plainUDP(set.flows[k].src, set.peers[k], 4000, 5000, len(set.pkts[k]))
		if err != nil {
			return nil, err
		}
		v.pristine = append(v.pristine, pkt)
		v.work = append(v.work, bytes.Clone(pkt))
	}
	return v, nil
}

// slice forwards whole batches until dur has passed. VanillaForward
// decrements the TTL in place, so the ring is restored (off the clock)
// before it runs out.
func (v *vanillaRing) slice(dur time.Duration) (pkts, errs int, elapsed time.Duration) {
	for elapsed < dur {
		for i := range v.work {
			copy(v.work[i], v.pristine[i])
		}
		t0 := time.Now()
		for pass := 0; pass < int(wire.MaxTTL)/2; pass++ {
			for _, p := range v.work {
				if err := core.VanillaForward(p); err != nil {
					errs++
				}
			}
		}
		elapsed += time.Since(t0)
		pkts += len(v.work) * int(wire.MaxTTL) / 2
	}
	return pkts, errs, elapsed
}

// clientKey is a one-time RSA-512 (e = 3) key pair drawn from the seed.
// The harness keeps (n, d) and opens responses with textbook RSA, so the
// key-setup output is checked without lightrsa's own decryption.
type clientKey struct {
	n, d *big.Int
}

func seededPrime(rng *mrand.Rand, bits int) *big.Int {
	buf := make([]byte, bits/8)
	three := big.NewInt(3)
	for {
		rng.Read(buf)
		buf[0] |= 0xc0 // top two bits set: the product of two such primes has 2·bits bits
		buf[len(buf)-1] |= 1
		p := new(big.Int).SetBytes(buf)
		// e = 3 must be coprime with p-1.
		if new(big.Int).Mod(p, three).Int64() != 2 || !p.ProbablyPrime(20) {
			continue
		}
		return p
	}
}

func newClientKey(rng *mrand.Rand) clientKey {
	for {
		p, q := seededPrime(rng, lightrsa.DefaultBits/2), seededPrime(rng, lightrsa.DefaultBits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		one := big.NewInt(1)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(big.NewInt(lightrsa.PublicExponent), phi)
		if d == nil {
			continue
		}
		return clientKey{n: new(big.Int).Mul(p, q), d: d}
	}
}

// open reverses the key-setup encryption: textbook RSA, then the block
// type 2 padding 0x00 0x02 <nonzero> 0x00 <msg>.
func (k clientKey) open(ct []byte) ([]byte, bool) {
	m := new(big.Int).Exp(new(big.Int).SetBytes(ct), k.d, k.n).Bytes() // leading 0x00 dropped
	if len(m) < 2 || m[0] != 0x02 {
		return nil, false
	}
	i := bytes.IndexByte(m[1:], 0)
	if i < 0 {
		return nil, false
	}
	return m[1+i+1:], true
}

// setupRig is the key-setup phase: TypeKeySetupRequest packets carrying
// seeded one-time public keys.
type setupRig struct {
	reqs [][]byte
	srcs []netip.Addr
	keys []clientKey
}

func newSetupRig(w *world) (*setupRig, error) {
	s := &setupRig{}
	var ks [4]clientKey
	for i := range ks {
		ks[i] = newClientKey(w.rng)
	}
	for i := 0; i < setupReqs; i++ {
		k := ks[i%len(ks)]
		src := randAddrIn(w.rng, outsideNet)
		pub := lightrsa.PublicKey{N: k.n}
		req, err := buildShim(src, anycastAddr, &shim.Header{Type: shim.TypeKeySetupRequest, PublicKey: pub.Marshal()}, nil)
		if err != nil {
			return nil, err
		}
		s.reqs, s.srcs, s.keys = append(s.reqs, req), append(s.srcs, src), append(s.keys, k)
	}
	return s, nil
}

// verify checks every request's response: a TypeKeySetupResponse to the
// source whose ciphertext opens to (nonce, Ks) with Ks = hash(KM, nonce, src).
func (s *setupRig) verify(r *coreRig, res *result) {
	for i, req := range s.reqs {
		res.Attempted++
		r.scratch.Reset()
		outs, err := r.neut.ProcessScratch(r.scratch, req)
		ok := err == nil && len(outs) == 1
		var out []byte
		if ok {
			out = outs[0].Pkt
			ok = len(out) > offBody+2 && shim.Type(out[offShim]) == shim.TypeKeySetupResponse &&
				addrAt(out, offIPSrc) == anycastAddr && addrAt(out, offIPDst) == s.srcs[i]
		}
		if ok {
			pt, opened := s.keys[i].open(out[offBody+2:])
			nonce, ks, derr := shim.DecodeSetupPlaintext(pt)
			want, kerr := r.w.sched.SessionKey(0, nonce, s.srcs[i])
			ok = opened && derr == nil && kerr == nil && ks == want
		}
		if !ok {
			res.Failed++
			if len(res.Errs) < 8 {
				res.Errs = append(res.Errs, fmt.Sprintf("key setup %d: response does not open to hash(KM, nonce, src) (err %v)", i, err))
			}
		}
	}
}

// slice answers key-setup requests until dur has passed.
func (s *setupRig) slice(r *coreRig, dur time.Duration) (n, errs int, elapsed time.Duration) {
	t0 := time.Now()
	for {
		for _, req := range s.reqs {
			r.scratch.Reset()
			if _, err := r.neut.ProcessScratch(r.scratch, req); err != nil {
				errs++
			}
		}
		n += len(s.reqs)
		if elapsed = time.Since(t0); elapsed >= dur {
			return n, errs, elapsed
		}
	}
}

func runCoreFlows(c *runCtx) (*result, error) { return runCore(c, false) }
func runCoreChurn(c *runCtx) (*result, error) { return runCore(c, true) }

func runCore(c *runCtx, churn bool) (*result, error) {
	runtime.GOMAXPROCS(1)
	name := "core-flows"
	repeats := 31
	if churn {
		name, repeats = "core-churn", 5
	}
	if c.probe {
		repeats = 2
	}
	res := newResult()
	root := c.tr.begin(0, name, "benchmark")
	defer c.tr.finish(root)

	// Key-setup phase (core-churn, traced run only: its rate swings by half
	// with whatever shares the physical core, so it cannot gate). It runs
	// first, while the heap is small: its RSA arithmetic allocates, and with
	// the 180 MB packet set live the phase would time the collector.
	if churn && c.tr != nil {
		w := newWorld(c.rng(), echoCustomers)
		neut, err := newNeutralizer(w)
		if err != nil {
			return nil, err
		}
		krig := &coreRig{w: w, neut: neut, scratch: core.NewScratch()}
		setup, err := newSetupRig(w)
		if err != nil {
			return nil, err
		}
		setup.verify(krig, res)
		var rates []float64
		slice := min(250*time.Millisecond, c.dur/16)
		sp := c.tr.begin(root, "key-setup", "core")
		for spent := time.Duration(0); spent < c.dur/4; {
			n, e, el := setup.slice(krig, slice)
			rates = append(rates, float64(n)/el.Seconds()/1e3)
			res.Attempted += int64(n)
			res.Failed += int64(e)
			spent += el
		}
		c.tr.finish(sp)
		res.Layers["core.keysetup_kpps"] = median(rates)
		res.detail("keysetup_kpps", median(rates), "k/s", len(rates))
	}

	sliceLen := min(400*time.Millisecond, c.dur/8)

	// Set-up: world, neutralizer and packet set, built several times.
	var setups, setupRefs []float64
	var rig *coreRig
	for i := 0; i < repeats; i++ {
		rig = nil
		// The previous set is collected off this build's clock, and its
		// pages stay with the process: the first build faults its memory in
		// (in a guest, the slowest and least steady thing it does), later
		// ones reuse it, and the median is one of the later ones.
		//
		// The collector stays off during a build, so the heap grows by exactly
		// what the build allocates — a function of the seed — and not by
		// wherever the pacer happened to start a cycle: with it on, peak RSS
		// of the churn set read 290 to 335 MB for one seed's 203 MB live.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		sp := c.tr.begin(root, "build-set", "benchmark")
		t0 := time.Now()
		r, err := buildCoreRig(c, churn)
		setups = append(setups, time.Since(t0).Seconds())
		c.tr.finish(sp)
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return nil, err
		}
		rig = r
		// The reference operation over the set just built, timed next to
		// every build: set-up time is reported at the reference's nominal
		// speed (reference.go), like every other timing.
		ref, err := newPacketRef(r.set)
		if err != nil {
			return nil, err
		}
		n, el := ref.slice(sliceLen / 16)
		setupRefs = append(setupRefs, perOp(el, n))
	}
	sp := c.tr.begin(root, "verify", "benchmark")
	rig.verify(res)
	c.tr.finish(sp)

	// Timed data phase, in cycles: a slice of the workload, then a slice of
	// the reference operation (reference.go), each workload slice priced in
	// units of the reference slice next to it. A traced run makes every
	// other workload slice a traced one and adds a VanillaForward slice per
	// cycle.
	ref, err := newPacketRef(rig.set)
	if err != nil {
		return nil, err
	}
	var vanilla *vanillaRing
	if c.tr != nil {
		if vanilla, err = newVanillaRing(rig.set); err != nil {
			return nil, err
		}
	}
	cur := &cursor{set: rig.set}
	var plain, traced, van, refNs, costs, cpus []float64
	var pkts, errs int
	before := rig.neut.Stats().Snapshot()
	refCost := func() (wall, cpu float64) {
		c0 := selfCPU()
		n, el := ref.slice(sliceLen / 4)
		return perOp(el, n), perOp(selfCPU()-c0, n)
	}
	// Each workload slice is priced against the mean of the reference
	// slices on either side of it.
	prevRef, prevRefCPU := refCost()
	for i, start := 0, time.Now(); time.Since(start) < c.dur; i++ {
		tr, sp := (*tracer)(nil), 0
		if c.tr != nil && i%2 == 1 {
			tr, sp = c.tr, c.tr.begin(root, "slice", "benchmark")
		}
		// Collected every cycle, off the clock. The errors ProcessScratch
		// allocates for truncated packets are garbage the pacer would let
		// pile up to twice the 203 MB set: peak RSS then read 320 to 352 MB
		// with how many packets the run got through.
		runtime.GC()
		c0 := selfCPU()
		n, e, el := rig.slice(cur, sliceLen, tr, sp)
		cpu := perOp(selfCPU()-c0, n)
		tr.finish(sp)
		pkts, errs = pkts+n, errs+e
		rns, rcpu := refCost()
		refNs = append(refNs, rns)
		if tr != nil {
			traced = append(traced, perOp(el, n))
		} else {
			plain = append(plain, perOp(el, n))
			costs = append(costs, perOp(el, n)/((prevRef+rns)/2))
			cpus = append(cpus, cpu/((prevRefCPU+rcpu)/2))
		}
		prevRef, prevRefCPU = rns, rcpu
		if vanilla != nil {
			sp := c.tr.begin(root, "VanillaForward", "core")
			n, e, el := vanilla.slice(sliceLen / 8)
			c.tr.finish(sp)
			van = append(van, perOp(el, n))
			if e != 0 {
				res.Failed += int64(e)
				res.Errs = append(res.Errs, fmt.Sprintf("VanillaForward rejected %d packets", e))
			}
		}
	}
	d := statsDelta(before, rig.neut.Stats().Snapshot())
	res.Attempted += int64(pkts)
	// Conservation over the timed loop: every packet was forwarded or
	// dropped, and exactly the dropped ones returned an error.
	if got := d.DataForwarded + d.ReturnForwarded + d.Dropped(); got != uint64(pkts) || d.Dropped() != uint64(errs) {
		res.Failed++
		res.Errs = append(res.Errs, fmt.Sprintf("timed loop: %d packets, %d accounted for, %d errors, %d drops", pkts, got, errs, d.Dropped()))
	}
	if !churn && errs != 0 {
		res.Failed += int64(errs)
		res.Errs = append(res.Errs, fmt.Sprintf("timed loop: %d well-formed packets rejected", errs))
	}

	opNs := median(plain)
	res.E2E["cost_x"] = median(costs)
	res.E2E["rate_x"] = 1 / median(costs)
	res.E2E["cpu_x"] = median(cpus)
	res.detail("ns_per_pkt", opNs, "ns", len(plain))
	res.detail("reference_packet_ns", median(refNs), "ns", len(refNs))
	res.Layers["core.ns_per_pkt"] = opNs
	res.Layers["reference.packet_ns"] = median(refNs)

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.E2E["peak_rss_mb"] = rss
	res.E2E["setup_s"] = nominalSeconds(setups, setupRefs, nominalPacketNs)
	res.detail("setup_measured_s", median(setups), "s", len(setups))
	if c.tr == nil {
		return res, nil
	}

	L := res.Layers
	L["trace.overhead_pct"] = pctDiff(opNs, median(traced))
	L["core.vanilla_ns"] = median(van)
	L["core.tax_x"] = opNs / median(van)
	hits, misses := rig.scratch.CryptoEpochStats()
	L["core.epoch_cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	if err := layerProbe(c, rig, churn, root, L); err != nil {
		return nil, err
	}
	return res, nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// layerProbe times each data-plane layer from outside: one span is one
// exported function applied to a 4096-packet batch, because a clock read
// costs more than the call. Each layer's number is the median over rounds.
func layerProbe(c *runCtx, rig *coreRig, churn bool, root int, L map[string]float64) error {
	w := rig.w
	sets := make(map[pktClass]*pktSet)
	for cl := classFwd; cl < nClasses; cl++ {
		s, err := uniformSet(w, churn, cl, batchLen)
		if err != nil {
			return err
		}
		sets[cl] = s
	}
	setup, err := newSetupRig(w)
	if err != nil {
		return err
	}
	fwd := sets[classFwd]
	// Inputs each layer needs, prepared off the clock.
	hidden := make([]aesutil.AddrBlock, batchLen)
	eks := make([]aesutil.ExpandedKey, batchLen)
	for i, p := range fwd.pkts {
		copy(hidden[i][:], p[offBody:offPayloadBlock])
		eks[i].Expand(fwd.flows[i].ks)
	}
	var (
		ip   wire.IPv4
		sh   shim.Header
		kw   keys.Work
		ek   aesutil.ExpandedKey
		salt [8]byte
		buf  = wire.NewSerializeBuffer(offPayloadBlock+64, 0)
		out  = shim.Header{Type: shim.TypeDelivered, InnerProto: wire.ProtoUDP, ClearAddr: anycastAddr}
		oip  = wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoShim, Src: anycastAddr, Dst: w.customers[0]}
		pub  = lightrsa.PublicKey{N: setup.keys[0].n}
		pt   = make([]byte, shim.SetupPlaintextLen)
	)
	process := func(s *pktSet) func() {
		return func() {
			for _, p := range s.pkts {
				rig.scratch.Reset()
				outs, _ := rig.neut.ProcessScratch(rig.scratch, p) // drops are the point of the hostile batches
				sink += uint64(len(outs))
			}
		}
	}
	layers := []struct {
		metric, layer string
		n             int
		fn            func()
	}{
		{"core.fwd_ns", "core", batchLen, process(fwd)},
		{"wire.parse_ns", "wire", batchLen, func() {
			for _, p := range fwd.pkts {
				_ = ip.DecodeFromBytes(p) // well-formed by construction; verify() checked
				sink += uint64(ip.TTL)
			}
		}},
		{"shim.parse_ns", "shim", batchLen, func() {
			for _, p := range fwd.pkts {
				_ = sh.DecodeFromBytes(p[offShim:])
				sink += uint64(sh.Type)
			}
		}},
		{"keys.kdf_ns", "keys", batchLen, func() {
			for _, f := range fwd.flows {
				k, _ := w.sched.SessionKeyInto(&kw, 0, f.nonce, f.src)
				sink += uint64(k[0])
			}
		}},
		{"aesutil.expand_ns", "aesutil", batchLen, func() {
			for _, f := range fwd.flows {
				ek.Expand(f.ks)
			}
		}},
		{"aesutil.addr_dec_ns", "aesutil", batchLen, func() {
			for i := range eks {
				_, _, ok := eks[i].DecryptAddrX(hidden[i])
				if ok {
					sink++
				}
			}
		}},
		{"aesutil.addr_enc_ns", "aesutil", batchLen, func() {
			for i := range eks {
				ct, _ := eks[i].EncryptAddrX(fwd.peers[i], salt)
				sink += uint64(ct[0])
			}
		}},
		{"shim.serialize_ns", "shim", batchLen, func() {
			for _, f := range fwd.flows {
				out.Nonce = f.nonce
				buf.Clear(offPayloadBlock + 64)
				_ = out.SerializeTo(buf)
			}
		}},
		{"wire.serialize_ns", "wire", batchLen, func() {
			for range fwd.pkts {
				buf.Clear(offPayloadBlock + 64)
				_ = oip.SerializeTo(buf)
			}
		}},
		{"core.ret_ns", "core", batchLen, process(sets[classRet])},
		{"core.drop_truncated_ns", "core", batchLen, process(sets[classTruncated])},
		{"core.drop_stale_epoch_ns", "core", batchLen, process(sets[classStale])},
		{"core.drop_bad_block_ns", "core", batchLen, process(sets[classBadBlock])},
		{"core.drop_not_customer_ns", "core", batchLen, process(sets[classNotCustomer])},
		{"core.keysetup_ns", "core", len(setup.reqs), func() {
			for _, req := range setup.reqs {
				rig.scratch.Reset()
				outs, _ := rig.neut.ProcessScratch(rig.scratch, req)
				sink += uint64(len(outs))
			}
		}},
		{"lightrsa.encrypt_ns", "lightrsa", len(setup.reqs), func() {
			for range setup.reqs {
				ct, _ := pub.Encrypt(rand.Reader, pt)
				sink += uint64(len(ct))
			}
		}},
	}
	rounds := 7
	if c.probe {
		rounds = 3
	}
	samples := make(map[string][]float64)
	for r := 0; r < rounds; r++ {
		batch := c.tr.begin(root, "layer-batch", "benchmark")
		for _, l := range layers {
			t0 := time.Now()
			l.fn()
			t1 := time.Now()
			c.tr.add(batch, l.metric, l.layer, t0, t1)
			samples[l.metric] = append(samples[l.metric], perOp(t1.Sub(t0), l.n))
		}
		c.tr.finish(batch)
	}
	for _, l := range layers {
		L[l.metric] = median(samples[l.metric])
	}
	children := 0.0
	for _, m := range []string{"wire.parse_ns", "shim.parse_ns", "keys.kdf_ns", "aesutil.expand_ns",
		"aesutil.addr_dec_ns", "shim.serialize_ns", "wire.serialize_ns"} {
		children += L[m]
	}
	// Dispatch, stats atomics, clock reads and Scratch.emit glue.
	L["core.self_ns"] = L["core.fwd_ns"] - children

	// Exact allocation count on the data and return paths: must be 0.
	var m0, m1 runtime.MemStats
	process(fwd)()
	runtime.ReadMemStats(&m0)
	process(fwd)()
	process(sets[classRet])()
	runtime.ReadMemStats(&m1)
	L["core.allocs_per_pkt"] = float64(m1.Mallocs-m0.Mallocs) / float64(2*batchLen)

	// Pool.ProcessBatch at workers = nproc against 1.
	perPkt := func(workers int) (float64, error) {
		pool, err := core.NewPool(core.PoolConfig{Workers: workers, Config: core.Config{
			Schedule: w.sched, Anycast: anycastAddr, IsCustomer: customerNet.Contains,
		}})
		if err != nil {
			return 0, err
		}
		defer pool.Close()
		var ns []float64
		for r := 0; r < rounds+1; r++ {
			t0 := time.Now()
			outs, dropped := pool.ProcessBatch(fwd.pkts)
			el := time.Since(t0)
			if len(outs) != batchLen || dropped != 0 {
				return 0, fmt.Errorf("core pool (%d workers): %d outputs, %d dropped of %d", workers, len(outs), dropped, batchLen)
			}
			if r > 0 { // first batch grows the buffers
				ns = append(ns, perOp(el, batchLen))
			}
		}
		return median(ns), nil
	}
	nproc := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	sp := c.tr.begin(root, "Pool.ProcessBatch", "core")
	defer c.tr.finish(sp)
	one, err := perPkt(1)
	if err != nil {
		return err
	}
	many, err := perPkt(nproc)
	if err != nil {
		return err
	}
	L["core.pool_ns_per_pkt"] = many
	L["core.pool_speedup_x"] = one / many
	return nil
}
