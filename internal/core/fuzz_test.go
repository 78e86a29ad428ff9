package core_test

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"netneutral/internal/core"
	"netneutral/internal/eval"
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
// through a locally-answering replica and an offloading one. Seeds are
// the bench environment's real packets — key setup, forward data, return,
// alternative-mode data, an offloaded setup, plain UDP — plus truncations
// and bit-flips of each. For
// every input, on both replicas:
//
//   - no panic;
//   - conservation: exactly one served counter or one drop counter moves,
//     by one, unless the packet is not a shim packet at all (ErrNotShim)
//     or asks for a dynamic address the pool can no longer supply
//     (ErrDynPoolExhausted) — the two refusals that are not about the
//     packet;
//   - an accepted input yields one output, a refused one none;
//   - the output does not alias the input, decodes as IP | shim, and
//     carries the input's ToS octet (§3.4).
func FuzzProcessScratch(f *testing.F) {
	env, err := eval.NewBenchEnv(false, true)
	if err != nil {
		f.Fatal(err)
	}
	offEnv, err := eval.NewBenchEnv(true, true)
	if err != nil {
		f.Fatal(err)
	}
	// The §3.4 dynamic-address path needs a pool; addresses are released
	// after every input so the table stays empty however long the run.
	dynPool := netip.MustParsePrefix("11.0.0.0/8")
	var replicas []*core.Neutralizer
	for _, e := range []*eval.BenchEnv{env, offEnv} {
		cfg := e.NeutralizerConfig()
		cfg.DynAddrPool = dynPool
		n, err := core.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		replicas = append(replicas, n)
	}

	// The offload seed is what a helper receives: the setup request as
	// the offloading replica re-emits it, grant stamped in.
	offloaded, err := replicas[1].ProcessScratch(core.NewScratch(), env.SetupPkt)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{env.SetupPkt, env.DataPkt, env.ReturnPkt, env.AltPkt, offloaded[0].Pkt, env.VanillaPkt}
	for _, pkt := range seeds {
		f.Add(pkt)
		for _, cut := range []int{wire.IPv4HeaderLen, wire.IPv4HeaderLen + shim.HeaderLen, len(pkt) / 2, len(pkt) - 1} {
			f.Add(pkt[:cut])
		}
		// Flips across the shim's type, flags, inner-protocol, epoch and
		// nonce octets and the first body octet: neighbouring types,
		// the QoS flags, stale epochs, wrong keys, broken bodies.
		for _, off := range []int{0, 1, 2, 4, 7, 8, shim.HeaderLen} {
			for _, bit := range []byte{0x01, 0x02, 0x08} {
				flipped := bytes.Clone(pkt)
				flipped[wire.IPv4HeaderLen+off] ^= bit
				f.Add(flipped)
			}
		}
	}

	scratch := core.NewScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range replicas {
			in := bytes.Clone(data) // the engine's bytes must not be written
			before := n.Stats().Snapshot()
			scratch.Reset()
			outs, err := n.ProcessScratch(scratch, in)
			after := n.Stats().Snapshot()

			// What this outcome must have moved: a refusal moves one drop
			// counter, unless it is one of the two that are not about the
			// packet; an acceptance moves one served counter and emits.
			wantServed, wantDropped := uint64(0), uint64(1)
			switch {
			case err == nil:
				wantServed, wantDropped = 1, 0
			case errors.Is(err, core.ErrNotShim), errors.Is(err, core.ErrDynPoolExhausted):
				wantDropped = 0
			}
			nServed, nDropped := served(after)-served(before), after.Dropped()-before.Dropped()
			if nServed != wantServed || nDropped != wantDropped || uint64(len(outs)) != wantServed {
				t.Fatalf("err %v: served %d, dropped %d, %d outputs; want %d, %d, %d",
					err, nServed, nDropped, len(outs), wantServed, wantDropped, wantServed)
			}
			if err != nil {
				continue
			}

			out := bytes.Clone(outs[0].Pkt)
			for i := range in {
				in[i] ^= 0xff
			}
			if !bytes.Equal(outs[0].Pkt, out) {
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
