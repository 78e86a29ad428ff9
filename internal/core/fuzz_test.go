package core_test

import (
	"bytes"
	"errors"
	mathrand "math/rand"
	"net/netip"
	"testing"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// served totals the counters that mean "this input was answered or
// forwarded"; StatsSnapshot.Dropped totals the ones that mean it was not.
func served(s core.StatsSnapshot) uint64 {
	return s.KeySetups + s.KeySetupsOffload + s.AltSetups + s.KeyFetches +
		s.DataForwarded + s.ReturnForwarded
}

// FuzzProcessScratch throws whole hostile packets at the neutralizer's
// state machine (the parsers have their own targets in wire and shim),
// through a locally-answering replica, an offloading one, and one whose
// /30 dynamic-address pool is already full. Seeds are the bench
// environment's real packets — key setup, forward data, return,
// alternative-mode data, an offloaded setup, a return asking for a
// dynamic address, plain UDP — plus truncations and bit-flips of each.
// Every input goes through each replica twice, on a fresh scratch and on
// one kept for the whole run (whose session-key cache has seen every
// earlier input), and each time through the replica's oracle (see
// oracle_test.go), the replica's entropy — a seeded reader, so nonces,
// salts and padding agree — rewound before each. For every input, on
// every replica:
//
//   - no panic;
//   - conservation: each call moves exactly one served counter or one drop
//     counter, by one, unless the packet is not a shim packet at all
//     (ErrNotShim);
//   - an accepted input yields one output, a refused one none;
//   - warm = fresh = oracle: both scratches return the oracle's outcome
//     class and its output bytes, and the same error text as each other;
//     a key-setup response to the bench client's own key also opens, under
//     that key, to (nonce, Ks = hash(KM, nonce, src));
//   - the input is not written, the output does not alias it, decodes as
//     IP | shim, and carries the input's ToS octet (§3.4).
func FuzzProcessScratch(f *testing.F) {
	env, err := benchenv.NewBenchEnv(false, true)
	if err != nil {
		f.Fatal(err)
	}
	offEnv, err := benchenv.NewBenchEnv(true, true)
	if err != nil {
		f.Fatal(err)
	}
	// The §3.4 dynamic-address path needs a pool; addresses are released
	// after every input so the table stays empty however long the run —
	// except on the third replica, whose two-address pool is filled here
	// and never released, so any other flow asking is refused.
	dynPool, fullPool := netip.MustParsePrefix("11.0.0.0/8"), netip.MustParsePrefix("12.0.0.0/30")
	type replica struct {
		n    *core.Neutralizer
		o    *oracle
		rng  *mathrand.Rand
		warm *core.Scratch
	}
	var replicas []replica
	for i, e := range []*benchenv.BenchEnv{env, offEnv, env} {
		cfg := e.NeutralizerConfig()
		cfg.DynAddrPool = dynPool
		if i == 2 {
			cfg.DynAddrPool = fullPool
		}
		rng := mathrand.New(mathrand.NewSource(1))
		cfg.Rand = rng
		n, err := core.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		o := &oracle{
			sched: cfg.Schedule, start: benchenv.Start, epochLen: cfg.Schedule.EpochLength(), now: cfg.Clock(),
			anycast: cfg.Anycast, customer: cfg.IsCustomer, rand: rng, alt: cfg.AltIdentity,
			dynPool: cfg.DynAddrPool, dynLive: map[[2]netip.Addr]netip.Addr{}, dynFull: i == 2,
		}
		if cfg.Offload != nil {
			o.helper = cfg.Offload.Helpers[0]
		}
		replicas = append(replicas, replica{n, o, rng, core.NewScratch()})
	}
	dynReturn := bytes.Clone(env.ReturnPkt)
	dynReturn[wire.IPv4HeaderLen+1] |= shim.FlagDynamicAddr
	for _, initiator := range []byte{1, 2} {
		fill := bytes.Clone(dynReturn)
		fill[wire.IPv4HeaderLen+shim.HeaderLen+3] ^= initiator // ClearAddr: another initiator
		outs, err := replicas[2].n.ProcessScratch(core.NewScratch(), fill)
		if err != nil {
			f.Fatal(err)
		}
		replicas[2].o.dynLive[[2]netip.Addr{addr4(fill[12:]), addr4(outs[0].Pkt[16:])}] = addr4(outs[0].Pkt[12:])
	}
	if _, err := replicas[2].n.ProcessScratch(core.NewScratch(), dynReturn); !errors.Is(err, core.ErrDynPoolExhausted) {
		f.Fatalf("filled pool: %v, want ErrDynPoolExhausted", err)
	}

	// The offload seed is what a helper receives: the setup request as
	// the offloading replica re-emits it, grant stamped in.
	offloaded, err := replicas[1].n.ProcessScratch(core.NewScratch(), env.SetupPkt)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{env.SetupPkt, env.DataPkt, env.ReturnPkt, env.AltPkt, offloaded[0].Pkt, dynReturn, env.VanillaPkt}
	for _, pkt := range seeds {
		f.Add(pkt)
		for _, cut := range []int{wire.IPv4HeaderLen, wire.IPv4HeaderLen + shim.HeaderLen, len(pkt) / 2, len(pkt) - 1} {
			f.Add(pkt[:cut])
		}
		// Flips across the shim's type, flags, inner-protocol, epoch and
		// nonce octets and the first body octet: neighbouring types (a
		// return becomes a key fetch), a key request on data, each QoS
		// flag on a return, stale epochs, wrong keys, broken bodies —
		// every shape the oracle models.
		for _, off := range []int{0, 1, 2, 4, 7, 8, shim.HeaderLen} {
			for _, bit := range []byte{0x01, 0x02, 0x04, 0x08} {
				flipped := bytes.Clone(pkt)
				flipped[wire.IPv4HeaderLen+off] ^= bit
				f.Add(flipped)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range replicas {
			n := r.n
			in := bytes.Clone(data)
			before := n.Stats().Snapshot()
			fresh, freshErr := checkAgainstOracle(t, r.o, n, core.NewScratch(), r.rng, in)
			warm, err := checkAgainstOracle(t, r.o, n, r.warm, r.rng, in)
			after := n.Stats().Snapshot()

			if (err == nil) != (freshErr == nil) || err != nil && err.Error() != freshErr.Error() {
				t.Fatalf("warm scratch: %v; fresh scratch: %v", err, freshErr)
			}
			// What the two calls must have moved, together: a refusal moves
			// one drop counter, unless the packet is not a shim packet at
			// all; an acceptance moves one served counter and emits.
			wantServed, wantDropped := uint64(0), uint64(2)
			switch {
			case err == nil:
				wantServed, wantDropped = 2, 0
			case errors.Is(err, core.ErrNotShim):
				wantDropped = 0
			}
			nServed, nDropped := served(after)-served(before), after.Dropped()-before.Dropped()
			if nServed != wantServed || nDropped != wantDropped {
				t.Fatalf("err %v: served %d, dropped %d; want %d, %d", err, nServed, nDropped, wantServed, wantDropped)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(warm, fresh) {
				t.Fatalf("warm and fresh scratch disagree:\n%x\n%x", warm, fresh)
			}
			if bytes.Equal(in, env.SetupPkt) && !r.o.helper.IsValid() {
				pt, err := env.ClientKey.Decrypt(warm[wire.IPv4HeaderLen+shim.HeaderLen+2:])
				nonce, ks, derr := shim.DecodeSetupPlaintext(pt)
				if err != nil || derr != nil || ks != r.o.key(uint32(env.Epoch), nonce[:], addr4(in[12:])) {
					t.Fatalf("key-setup response does not open to (nonce, hash(KM, nonce, src)): %v, %v", err, derr)
				}
			}

			out := bytes.Clone(warm)
			for i := range in {
				in[i] ^= 0xff
			}
			if !bytes.Equal(warm, out) {
				t.Fatal("output aliases the input buffer")
			}
			var ip wire.IPv4
			var sh shim.Header
			if err := ip.DecodeFromBytes(out); err != nil || ip.Protocol != wire.ProtoShim {
				t.Fatalf("output is not an IP shim datagram: proto %d, %v", ip.Protocol, err)
			}
			if err := sh.DecodeFromBytes(ip.Payload()); err != nil {
				t.Fatalf("output shim undecodable: %v", err)
			}
			if ip.TOS != data[1] {
				t.Fatalf("ToS %#x rewritten to %#x", data[1], ip.TOS)
			}
			if dynPool.Contains(ip.Src) {
				n.ReleaseDynAddr(ip.Src)
			}
		}
	})
}
