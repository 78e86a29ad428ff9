package netem

import (
	"fmt"
	"math/bits"
	"net/netip"
	"time"
)

// BackboneSpec parameterizes a continental-scale topology: N metros —
// each a full BuildFanout subtree with its own address blocks, anycast
// neutralizer address, and shard(s) — stitched through one transit-core
// router with wide-area propagation delays.
//
//	          ┌── metro 0 (transit ── border ── edges ── hosts)
//	 core ────┼── metro 1
//	(shard 0) └── … metro N-1 (shards 1+m·K … )
//
// Addressing plan, explicit and validated (overlapping metros are
// rejected, not implied): metro m's customer block is the m-th
// power-of-two-sized slice of 10.0.0.0/9 large enough for
// HostsPerMetro+1 addresses, its outside block the m-th slice of
// 172.16.0.0/12 sized for OutsidePerMetro+1, and its neutralizer
// anycast address 10.224.0.0/11 base + m·256 + 1. A spec whose metros
// would not fit those spaces fails to build.
type BackboneSpec struct {
	// Metros is the number of metro subtrees (required, 1..4096).
	Metros int
	// HostsPerMetro is the customer-host count per metro (required).
	HostsPerMetro int
	// HostsPerEdge bounds one edge router's fan-out (default 256).
	HostsPerEdge int
	// OutsidePerMetro is the outside-user count per metro (default 1).
	OutsidePerMetro int
	// ShardsPerMetro spreads each metro's edge subtrees over K shards
	// (default 1: one shard per metro). The core always runs on shard 0.
	// Kept deliberately coarse: cross-shard outboxes are O(shards²), so
	// dozens of shards is the sweet spot, not one per edge.
	ShardsPerMetro int
	// CoreLink configures the metro-gateway↔core links. A zero Delay
	// gets a deterministic per-metro spread (2ms + (7m mod 29)ms — the
	// wide-area delays that bound the engine's lookahead).
	CoreLink LinkConfig
	// HostLink, EdgeLink, TransitLink, OutsideLink pass through to each
	// metro's FanoutSpec. EdgeLink must keep a positive delay when
	// ShardsPerMetro > 1.
	HostLink, EdgeLink, TransitLink, OutsideLink LinkConfig
	// FluidBpsPerEdge, when positive, attaches a fluid background
	// aggregate of this mean rate to both directions of every
	// border↔edge link at StartFluid time (see fluid.go for what fluid
	// load does and does not model).
	FluidBpsPerEdge float64
	// FluidJitterFrac and FluidInterval configure those aggregates
	// (defaults 0.2 and 100ms).
	FluidJitterFrac float64
	FluidInterval   time.Duration
}

// Backbone is a built multi-metro topology.
type Backbone struct {
	Sim    *Simulator
	Spec   BackboneSpec
	Core   *Node
	Metros []*Fanout

	fluid []*FluidFlow
}

// Backbone address spaces (see BackboneSpec doc).
var (
	backboneCustomerSpace = netip.MustParsePrefix("10.0.0.0/9")
	backboneOutsideSpace  = netip.MustParsePrefix("172.16.0.0/12")
	backboneAnycastBase   = netip.MustParseAddr("10.224.0.1")
)

// blockSizeFor returns the power-of-two block size holding want
// addresses (builders burn address 0 of a block, hence the +1 at calls).
func blockSizeFor(want int) uint32 {
	if want < 1 {
		want = 1
	}
	return uint32(1) << bits.Len32(uint32(want-1))
}

// backbonePlan carves the per-metro address blocks, validating that the
// whole spec fits its spaces.
func backbonePlan(spec BackboneSpec) (customer, outside []netip.Prefix, anycast []netip.Addr, err error) {
	custSize := blockSizeFor(spec.HostsPerMetro + 1)
	outSize := blockSizeFor(spec.OutsidePerMetro + 1)
	custSpace := uint64(1) << (32 - uint(backboneCustomerSpace.Bits()))
	outSpace := uint64(1) << (32 - uint(backboneOutsideSpace.Bits()))
	if uint64(spec.Metros)*uint64(custSize) > custSpace {
		return nil, nil, nil, fmt.Errorf("netem: %d metros × %d-address customer blocks exceed %v",
			spec.Metros, custSize, backboneCustomerSpace)
	}
	if uint64(spec.Metros)*uint64(outSize) > outSpace {
		return nil, nil, nil, fmt.Errorf("netem: %d metros × %d-address outside blocks exceed %v",
			spec.Metros, outSize, backboneOutsideSpace)
	}
	custBits := 32 - bits.Len32(custSize-1)
	outBits := 32 - bits.Len32(outSize-1)
	custBase := ipv4ToUint(backboneCustomerSpace.Addr())
	outBase := ipv4ToUint(backboneOutsideSpace.Addr())
	anyBase := ipv4ToUint(backboneAnycastBase)
	for m := 0; m < spec.Metros; m++ {
		customer = append(customer, netip.PrefixFrom(uintToIPv4(custBase+uint32(m)*custSize), custBits))
		outside = append(outside, netip.PrefixFrom(uintToIPv4(outBase+uint32(m)*outSize), outBits))
		anycast = append(anycast, uintToIPv4(anyBase+uint32(m)*256))
	}
	return customer, outside, anycast, nil
}

// backboneMetroDelay is the deterministic wide-area delay spread used
// when CoreLink.Delay is zero: distinct per metro, never less than 2ms,
// a pure function of the metro index (replay-stable).
func backboneMetroDelay(m int) time.Duration {
	return (2 + time.Duration(m*7%29)) * time.Millisecond
}

// BuildBackbone stamps the multi-metro topology onto a fresh simulator.
// Metro m's nodes are named "m<m>/…" ("m3/border"); its hosts are
// compact (anonymous, slab-allocated — reach them via
// Backbone.Metros[m].Hosts). The core installs three routes per metro —
// customer block, outside block, anycast /32 — so core routing state is
// O(metros) and every router's total state is O(edges + metros) at any
// host count.
func BuildBackbone(sim *Simulator, spec BackboneSpec) (*Backbone, error) {
	if spec.Metros < 1 || spec.Metros > 4096 {
		return nil, fmt.Errorf("netem: backbone needs 1..4096 metros, got %d", spec.Metros)
	}
	if spec.HostsPerMetro <= 0 {
		return nil, fmt.Errorf("netem: backbone needs at least 1 host per metro, got %d", spec.HostsPerMetro)
	}
	if spec.OutsidePerMetro <= 0 {
		spec.OutsidePerMetro = 1
	}
	if spec.ShardsPerMetro <= 0 {
		spec.ShardsPerMetro = 1
	}
	if spec.FluidJitterFrac == 0 {
		spec.FluidJitterFrac = 0.2
	}
	customer, outside, anycast, err := backbonePlan(spec)
	if err != nil {
		return nil, err
	}
	if spec.CoreLink.Delay < 0 {
		return nil, fmt.Errorf("netem: negative CoreLink delay")
	}

	bb := &Backbone{Sim: sim, Spec: spec}
	sim.SetShardCount(1 + spec.Metros*spec.ShardsPerMetro)
	core, err := sim.AddNode("core", "transit-core")
	if err != nil {
		return nil, err
	}
	bb.Core = core
	bb.Metros = make([]*Fanout, 0, spec.Metros)
	for m := 0; m < spec.Metros; m++ {
		shards := make([]int, spec.ShardsPerMetro)
		for k := range shards {
			shards[k] = 1 + m*spec.ShardsPerMetro + k
		}
		f, err := BuildFanout(sim, FanoutSpec{
			Hosts:        spec.HostsPerMetro,
			HostsPerEdge: spec.HostsPerEdge,
			Outside:      spec.OutsidePerMetro,
			Anycast:      anycast[m],
			CustomerNet:  customer[m],
			OutsideNet:   outside[m],
			NamePrefix:   fmt.Sprintf("m%d/", m),
			HostLink:     spec.HostLink,
			EdgeLink:     spec.EdgeLink,
			TransitLink:  spec.TransitLink,
			OutsideLink:  spec.OutsideLink,
			Shards:       shards,
		})
		if err != nil {
			return nil, fmt.Errorf("metro %d: %w", m, err)
		}
		cl := spec.CoreLink
		if cl.Delay == 0 {
			cl.Delay = backboneMetroDelay(m)
		}
		up := sim.Connect(f.Transit, core, cl)
		f.Transit.AddRoute(defaultRoute, up)
		core.AddRoute(customer[m], up)
		core.AddRoute(outside[m], up)
		core.AddRoute(netip.PrefixFrom(anycast[m], 32), up)
		bb.Metros = append(bb.Metros, f)
	}
	return bb, nil
}

// HostAddr returns the address of host i in metro m.
func (bb *Backbone) HostAddr(m, i int) netip.Addr { return bb.Metros[m].HostAddr(i) }

// StartFluid attaches (first call) and starts the configured background
// aggregates on every border↔edge link, offering load for duration d of
// virtual time. No-op when FluidBpsPerEdge is zero.
func (bb *Backbone) StartFluid(d time.Duration) error {
	if bb.Spec.FluidBpsPerEdge <= 0 {
		return nil
	}
	if bb.fluid == nil {
		cfg := FluidConfig{
			RateBps:    bb.Spec.FluidBpsPerEdge,
			JitterFrac: bb.Spec.FluidJitterFrac,
			Interval:   bb.Spec.FluidInterval,
		}
		for _, f := range bb.Metros {
			for e, l := range f.EdgeLinks {
				up, err := bb.Sim.AttachFluid(l, f.Edges[e], cfg)
				if err != nil {
					return err
				}
				down, err := bb.Sim.AttachFluid(l, f.Border, cfg)
				if err != nil {
					return err
				}
				bb.fluid = append(bb.fluid, up, down)
			}
		}
	}
	for _, fl := range bb.fluid {
		fl.Start(d)
	}
	return nil
}
