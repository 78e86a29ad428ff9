package netem

import (
	"fmt"
	"math/bits"
	"net/netip"
	"time"
)

// BackboneSpec parameterizes a continental-scale topology: N metros —
// each a full BuildFanout subtree (default 256 hosts per edge, one
// outside user) with its own address blocks, anycast neutralizer
// address, and shard — stitched through one transit-core router with
// wide-area propagation delays (backboneMetroDelay, the spread that
// bounds the engine's lookahead).
//
//	          ┌── metro 0 (transit ── border ── edges ── hosts)
//	 core ────┼── metro 1
//	(shard 0) └── … metro N-1 (shard N)
//
// One shard per metro is deliberately coarse: cross-shard outboxes are
// O(shards²), so dozens of shards is the sweet spot, not one per edge.
//
// Addressing plan, explicit and validated (overlapping metros are
// rejected, not implied): metro m's customer block is the m-th
// power-of-two-sized slice of 10.0.0.0/9 large enough for
// HostsPerMetro+1 addresses, its outside block the m-th two-address
// slice of 172.16.0.0/12, and its neutralizer anycast address
// 10.224.0.0/11 base + m·256 + 1. A spec whose metros would not fit
// those spaces fails to build.
type BackboneSpec struct {
	// Metros is the number of metro subtrees (required, 1..4096).
	Metros int
	// HostsPerMetro is the customer-host count per metro (required).
	HostsPerMetro int
	// HostLink, EdgeLink, TransitLink, OutsideLink pass through to each
	// metro's FanoutSpec.
	HostLink, EdgeLink, TransitLink, OutsideLink LinkConfig
	// FluidBpsPerEdge, when positive, attaches a fluid background
	// aggregate of this mean rate, jittered by fluidJitterFrac, to both
	// directions of every border↔edge link at StartFluid time (see
	// fluid.go for what fluid load does and does not model).
	FluidBpsPerEdge float64
	// FluidInterval is those aggregates' rate-update period (default
	// 100ms).
	FluidInterval time.Duration
}

// fluidJitterFrac is how far each interval's fluid rate may stray from
// FluidBpsPerEdge, either way.
const fluidJitterFrac = 0.2

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
// customer blocks fit their space. Each metro's outside block holds two
// addresses (one outside user), so 4096 metros fill 8192 of the outside
// space's 2²⁰.
func backbonePlan(spec BackboneSpec) (customer, outside []netip.Prefix, anycast []netip.Addr, err error) {
	custSize := blockSizeFor(spec.HostsPerMetro + 1)
	const outSize = 2
	custSpace := uint64(1) << (32 - uint(backboneCustomerSpace.Bits()))
	if uint64(spec.Metros)*uint64(custSize) > custSpace {
		return nil, nil, nil, fmt.Errorf("netem: %d metros × %d-address customer blocks exceed %v",
			spec.Metros, custSize, backboneCustomerSpace)
	}
	custBits := 32 - bits.Len32(custSize-1)
	const outBits = 31
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

// backboneMetroDelay is metro m's core-link delay, a deterministic
// wide-area spread: 2ms + (7m mod 29)ms, never less than 2ms, a pure
// function of the metro index (replay-stable).
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
	customer, outside, anycast, err := backbonePlan(spec)
	if err != nil {
		return nil, err
	}

	bb := &Backbone{Sim: sim, Spec: spec}
	sim.SetShardCount(1 + spec.Metros)
	core, err := sim.AddNode("core", "transit-core")
	if err != nil {
		return nil, err
	}
	bb.Core = core
	bb.Metros = make([]*Fanout, 0, spec.Metros)
	for m := 0; m < spec.Metros; m++ {
		f, err := BuildFanout(sim, FanoutSpec{
			Hosts:       spec.HostsPerMetro,
			Anycast:     anycast[m],
			CustomerNet: customer[m],
			OutsideNet:  outside[m],
			NamePrefix:  fmt.Sprintf("m%d/", m),
			HostLink:    spec.HostLink,
			EdgeLink:    spec.EdgeLink,
			TransitLink: spec.TransitLink,
			OutsideLink: spec.OutsideLink,
			Shard:       1 + m,
		})
		if err != nil {
			return nil, fmt.Errorf("metro %d: %w", m, err)
		}
		up := sim.Connect(f.Transit, core, LinkConfig{Delay: backboneMetroDelay(m)})
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
			JitterFrac: fluidJitterFrac,
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
