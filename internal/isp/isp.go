// Package isp models Internet service providers — in particular the
// paper's discriminatory ISP: one that classifies packets by content
// (DPI), application (ports), or source/destination addresses, and
// degrades what it matches (drop, delay, deprioritize).
//
// A Policy compiles an ordered rule list into a netem.TransitHook
// installed on the ISP's transit routers. An Eavesdropper is the passive
// counterpart: it records what the ISP can observe about each packet
// crossing its domain, which is exactly the information a discriminatory
// ISP could act on. The Figure-1 experiments are phrased as assertions
// over these observations: with the neutralizer in place, no observation
// ever names a protected customer.
//
// The threat model follows §2: the ISP eavesdrops, delays and drops
// within its own network but does not modify payloads or mount MITM.
//
// Hooks run on netem's no-copy packet view: the pkt slice aliases the
// pooled buffer and is valid only for the duration of the call. Matchers
// only read it, and the Eavesdropper extracts value-typed Observations
// rather than retaining bytes, so policies add no per-packet copies to
// the forwarding path even at metro scale.
package isp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Matcher reports whether a serialized IPv4 packet matches a
// classification criterion.
type Matcher func(pkt []byte) bool

// MatchDstAddr matches packets to a — the tool an ISP would use to
// target a specific site (the paper's "slow down queries for
// www.google.com if Google does not pay").
func MatchDstAddr(a netip.Addr) Matcher {
	return func(pkt []byte) bool {
		_, dst, err := wire.IPv4Addrs(pkt)
		return err == nil && dst == a
	}
}

// MatchUDPPort matches packets with the given UDP source or destination
// port — application-type discrimination (e.g. SIP/RTP VoIP ports). It
// looks through a shim header if present, although against encrypted
// payloads it will not fire (which is the point of the design).
func MatchUDPPort(port uint16) Matcher {
	return func(pkt []byte) bool {
		udp := transportOf(pkt)
		return udp != nil && (udp.SrcPort == port || udp.DstPort == port)
	}
}

// MatchPayloadContains performs DPI: matches packets whose bytes above
// the IP header contain sig. Against end-to-end encrypted payloads this
// cannot fire on plaintext content.
func MatchPayloadContains(sig []byte) Matcher {
	return func(pkt []byte) bool {
		if len(pkt) <= wire.IPv4HeaderLen {
			return false
		}
		return bytes.Contains(pkt[wire.IPv4HeaderLen:], sig)
	}
}

func transportOf(pkt []byte) *wire.UDP {
	proto, err := wire.IPv4Proto(pkt)
	if err != nil {
		return nil
	}
	var payload []byte
	switch proto {
	case wire.ProtoUDP:
		if len(pkt) > wire.IPv4HeaderLen {
			payload = pkt[wire.IPv4HeaderLen:]
		}
	case wire.ProtoShim:
		var sh shim.Header
		if len(pkt) > wire.IPv4HeaderLen && sh.DecodeFromBytes(pkt[wire.IPv4HeaderLen:]) == nil &&
			sh.InnerProto == wire.ProtoUDP {
			payload = sh.Payload()
		}
	}
	if payload == nil {
		return nil
	}
	var udp wire.UDP
	if udp.DecodeFromBytes(payload) != nil {
		return nil
	}
	return &udp
}

// Action is what a matching rule does to a packet.
type Action struct {
	// DropProb drops the packet with this probability (1.0 = always).
	DropProb float64
	// Delay holds the packet before it continues.
	Delay time.Duration
}

// Rule is one classification entry.
type Rule struct {
	Name   string
	Match  Matcher
	Action Action
}

// Policy is an ordered first-match rule list with per-rule hit counters.
// The rules never change after NewPolicy, so a hook matches them without
// the lock; only a match takes it, for its hit count and its drop draw.
type Policy struct {
	rules []Rule
	mu    sync.Mutex
	hits  []uint64 // per rule index
	rng   *rand.Rand
}

// NewPolicy builds a policy; rng drives probabilistic drops (seed it for
// deterministic experiments).
func NewPolicy(rng *rand.Rand, rules ...Rule) *Policy {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Policy{rules: slices.Clone(rules), hits: make([]uint64, len(rules)), rng: rng}
}

// Hits returns how many packets matched the rules with this name.
func (p *Policy) Hits(name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for i := range p.rules {
		if p.rules[i].Name == name {
			n += p.hits[i]
		}
	}
	return n
}

// Hook compiles the policy into a transit hook for netem nodes.
func (p *Policy) Hook() netem.TransitHook {
	return func(now time.Time, node *netem.Node, pkt []byte) netem.Verdict {
		for i := range p.rules {
			r := &p.rules[i]
			if !r.Match(pkt) {
				continue
			}
			v := netem.Verdict{Delay: r.Action.Delay, Cause: netem.CauseRule}
			p.mu.Lock()
			p.hits[i]++
			if r.Action.DropProb > 0 && p.rng.Float64() < r.Action.DropProb {
				v.Drop = true
			}
			p.mu.Unlock()
			return v
		}
		return netem.Deliver
	}
}

// Observation is one packet as seen by an on-path ISP: everything it can
// read without breaking encryption.
type Observation struct {
	Time     time.Time
	Src, Dst netip.Addr
	Proto    uint8
	DSCP     uint8
	Size     int
	// ShimType is the neutralizer message type if the packet is
	// neutralized (visible per §3.6), or shim.TypeInvalid.
	ShimType shim.Type
	// InnerVisible reports whether the ISP could parse an inner transport
	// header (true only for non-encrypted traffic).
	InnerVisible bool
	InnerSrcPort uint16
	InnerDstPort uint16
}

// Eavesdropper passively records Observations at the nodes it is attached
// to. It is the measurement instrument for the Figure-1 experiments.
type Eavesdropper struct {
	mu  sync.Mutex
	obs []Observation
}

// NewEavesdropper creates an empty eavesdropper.
func NewEavesdropper() *Eavesdropper { return &Eavesdropper{} }

// Hook returns a transit hook that records and never interferes.
func (e *Eavesdropper) Hook() netem.TransitHook {
	return func(now time.Time, node *netem.Node, pkt []byte) netem.Verdict {
		e.record(now, pkt)
		return netem.Deliver
	}
}

func (e *Eavesdropper) record(now time.Time, pkt []byte) {
	var ip wire.IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		return
	}
	o := Observation{
		Time: now, Src: ip.Src, Dst: ip.Dst,
		Proto: ip.Protocol, DSCP: ip.DSCP(), Size: len(pkt),
	}
	if ip.Protocol == wire.ProtoShim {
		if t, ok := shim.PeekType(ip.Payload()); ok {
			o.ShimType = t
		}
	}
	if ip.Protocol == wire.ProtoUDP {
		var udp wire.UDP
		if udp.DecodeFromBytes(ip.Payload()) == nil {
			o.InnerVisible = true
			o.InnerSrcPort = udp.SrcPort
			o.InnerDstPort = udp.DstPort
		}
	}
	e.mu.Lock()
	e.obs = append(e.obs, o)
	e.mu.Unlock()
}

// SawAddr reports whether any observation names a as source or
// destination: the targetability test. If the neutralizer works, this is
// false for every protected customer.
func (e *Eavesdropper) SawAddr(a netip.Addr) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.obs {
		if o.Src == a || o.Dst == a {
			return true
		}
	}
	return false
}
