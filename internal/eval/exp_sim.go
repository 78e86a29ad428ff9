package eval

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/dnssim"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/isp"
	"netneutral/internal/measure"
	"netneutral/internal/netem"
	"netneutral/internal/simnet"
)

// figure1World is the topology of the paper's Figure 1: an outside user
// (Ann, in AT&T), a discriminatory transit router, and a supportive ISP
// (Cogent) whose border hosts a neutralizer before several customers.
type figure1World struct {
	sim    *netem.Simulator
	ann    *netem.Node
	att    *netem.Node // discriminatory router
	google *netem.Node
	vonage *netem.Node
}

var (
	f1Ann     = netip.MustParseAddr("172.16.1.10")
	f1Att     = netip.MustParseAddr("172.16.0.1")
	f1Anycast = netip.MustParseAddr("10.200.0.1")
	f1Google  = netip.MustParseAddr("10.10.0.5")
	f1YouTube = netip.MustParseAddr("10.10.0.6")
	f1Vonage  = netip.MustParseAddr("10.10.0.7")
	f1CustNet = netip.MustParsePrefix("10.10.0.0/16")
)

func newFigure1World(seed int64) (*figure1World, error) {
	w := &figure1World{}
	w.sim = netem.NewSimulator(benchStart, seed)
	w.ann = w.sim.MustAddNode("ann", "att", f1Ann)
	w.att = w.sim.MustAddNode("att-core", "att", f1Att)
	border := w.sim.MustAddNode("cogent-border", "cogent")
	w.google = w.sim.MustAddNode("google", "cogent", f1Google)
	youtube := w.sim.MustAddNode("youtube", "cogent", f1YouTube)
	w.vonage = w.sim.MustAddNode("vonage", "cogent", f1Vonage)
	w.sim.Connect(w.ann, w.att, netem.LinkConfig{Delay: 2 * time.Millisecond})
	w.sim.Connect(w.att, border, netem.LinkConfig{Delay: 8 * time.Millisecond})
	w.sim.Connect(border, w.google, netem.LinkConfig{Delay: 2 * time.Millisecond})
	w.sim.Connect(border, youtube, netem.LinkConfig{Delay: 2 * time.Millisecond})
	w.sim.Connect(border, w.vonage, netem.LinkConfig{Delay: 2 * time.Millisecond})
	w.sim.AddAnycast(f1Anycast, border)
	w.sim.BuildRoutes()

	neut, err := core.New(core.Config{
		Schedule:   benchenv.NewSchedule(),
		Anycast:    f1Anycast,
		IsCustomer: f1CustNet.Contains,
		Clock:      w.sim.Now,
		Rand:       detRand(seed + 1),
	})
	if err != nil {
		return nil, err
	}
	AttachNeutralizerScratch(border, neut)
	return w, nil
}

// newHost stands an endhost on a node of the world.
func (w *figure1World) newHost(node *netem.Node, seed int64) (*endhost.Host, error) {
	h, err := newEndhost(w.sim, node, seed, seed+100)
	if err != nil {
		return nil, err
	}
	node.SetHandler(h.HandlePacket)
	return h, nil
}

// keySetup stands an endhost on the peer's node and one on Ann's and
// walks Ann through Figure 2(a): a virtual second later she should hold
// a provisional conduit, ready to Connect to the peer.
func (w *figure1World) keySetup(peerNode *netem.Node, peerSeed, annSeed int64) (ann, peer *endhost.Host, err error) {
	if peer, err = w.newHost(peerNode, peerSeed); err != nil {
		return nil, nil, err
	}
	if ann, err = w.newHost(w.ann, annSeed); err != nil {
		return nil, nil, err
	}
	if err = ann.Setup(f1Anycast); err != nil {
		return nil, nil, err
	}
	w.sim.RunFor(time.Second)
	return ann, peer, nil
}

// f1Watch puts Figure 1's discriminatory ISP on the transit router: an
// eavesdropper, then the rule killing everything addressed to Google.
func f1Watch(w *figure1World) (*isp.Policy, *isp.Eavesdropper) {
	policy := isp.NewPolicy(nil,
		isp.Rule{Name: "target-google", Match: isp.MatchDstAddr(f1Google), Action: isp.Action{DropProb: 1}},
	)
	eav := isp.NewEavesdropper()
	w.att.AddTransitHook(eav.Hook())
	w.att.AddTransitHook(policy.Hook())
	return policy, eav
}

// RunF1 reproduces Figure 1's claim: with plain addressing a
// discriminatory ISP deterministically kills traffic to a specific
// customer; with the neutralizer the same classifier never fires and the
// customer's address never appears inside the discriminatory domain.
func RunF1() (*Result, error) {
	// ---- Phase 1: no neutralizer ----
	w, err := newFigure1World(11)
	if err != nil {
		return nil, err
	}
	policy, eav := f1Watch(w)
	deliveredPlain := 0
	w.google.SetHandler(func(time.Time, []byte) { deliveredPlain++ })
	const attempts = 20
	for i := 0; i < attempts; i++ {
		w.sim.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			_ = w.ann.Send(plainUDP(f1Ann, f1Google, 4000, 80, []byte("GET /")))
		})
	}
	w.sim.Run()
	plainHits := policy.Hits("target-google")
	plainSaw := eav.SawAddr(f1Google)

	// ---- Phase 2: neutralized ----
	w2, err := newFigure1World(12)
	if err != nil {
		return nil, err
	}
	policy2, eav2 := f1Watch(w2)

	received := 0
	annHost, googleHost, err := w2.keySetup(w2.google, 31, 32)
	if err != nil {
		return nil, err
	}
	if !annHost.HasConduit(f1Anycast) {
		return nil, fmt.Errorf("F1: key setup did not complete")
	}
	if err := annHost.Connect(f1Anycast, f1Google, googleHost.Identity()); err != nil {
		return nil, err
	}
	googleHost.SetOnData(func(peer netip.Addr, data []byte) { received++ })
	for i := 0; i < attempts; i++ {
		w2.sim.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			_ = annHost.Send(f1Google, []byte("GET /"))
		})
	}
	w2.sim.RunFor(2 * time.Second)

	return &Result{ID: "F1", Title: "Customer indistinguishability (Figure 1)", Rows: []Row{
		{Metric: "plain: delivered to targeted customer", Paper: "0 (deterministic harm)",
			Measured: fmt.Sprintf("%d/%d", deliveredPlain, attempts), Note: ""},
		{Metric: "plain: classifier hits", Paper: "all packets",
			Measured: fmt.Sprintf("%d", plainHits), Note: ""},
		{Metric: "plain: ISP saw customer address", Paper: "yes",
			Measured: fmt.Sprintf("%v", plainSaw), Note: ""},
		{Metric: "neutralized: delivered to targeted customer", Paper: "all (cannot target)",
			Measured: fmt.Sprintf("%d/%d", received, attempts), Note: ""},
		{Metric: "neutralized: classifier hits", Paper: "0",
			Measured: fmt.Sprintf("%d", policy2.Hits("target-google")), Note: ""},
		{Metric: "neutralized: ISP saw customer address", Paper: "no",
			Measured: fmt.Sprintf("%v", eav2.SawAddr(f1Google)), Note: "only the anycast address is visible"},
	}}, nil
}

// RunF2 walks the full Figure 2 protocol on the emulated topology and
// asserts, packet by packet, what the discriminatory ISP could see.
func RunF2() (*Result, error) {
	w, err := newFigure1World(21)
	if err != nil {
		return nil, err
	}
	var tapped [][]byte
	w.att.AddTransitHook(func(_ time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
		tapped = append(tapped, bytes.Clone(pkt))
		return netem.Deliver
	})

	var googleGot, annGot []byte
	annHost, googleHost, err := w.keySetup(w.google, 41, 42)
	if err != nil {
		return nil, err
	}
	googleHost.SetOnData(func(peer netip.Addr, data []byte) {
		googleGot = bytes.Clone(data)
		_ = googleHost.Send(peer, []byte("REPLY-SECRET"))
	})
	annHost.SetOnData(func(_ netip.Addr, data []byte) { annGot = bytes.Clone(data) })
	setupOK := annHost.HasConduit(f1Anycast) && annHost.ConduitProvisional(f1Anycast)

	if err := annHost.Connect(f1Anycast, f1Google, googleHost.Identity()); err != nil {
		return nil, err
	}
	if err := annHost.Send(f1Google, []byte("FORWARD-SECRET")); err != nil {
		return nil, err
	}
	w.sim.RunFor(2 * time.Second)

	leakPayload, leakAddr := false, false
	g4 := f1Google.As4()
	for _, p := range tapped {
		if bytes.Contains(p, []byte("FORWARD-SECRET")) || bytes.Contains(p, []byte("REPLY-SECRET")) {
			leakPayload = true
		}
		if bytes.Contains(p, g4[:]) {
			leakAddr = true
		}
	}
	refresh := !annHost.ConduitProvisional(f1Anycast)

	return &Result{ID: "F2", Title: "Protocol walk (Figure 2)", Rows: []Row{
		{Metric: "2a: setup yields provisional (nonce, Ks)", Paper: "steps 1-2",
			Measured: pass(setupOK), Note: "RSA-512 one-time key, stateless derivation"},
		{Metric: "2b: data delivered to hidden destination", Paper: "steps 3-4",
			Measured: pass(string(googleGot) == "FORWARD-SECRET"), Note: ""},
		{Metric: "2b: reply delivered via anycast source", Paper: "steps 5-6",
			Measured: pass(string(annGot) == "REPLY-SECRET"), Note: ""},
		{Metric: "grant returned e2e; short-RSA key retired", Paper: "§3.2 refresh",
			Measured: pass(refresh), Note: ""},
		{Metric: "no payload visible in AT&T", Paper: "encrypted",
			Measured: pass(!leakPayload), Note: fmt.Sprintf("%d packets inspected", len(tapped))},
		{Metric: "no customer address visible in AT&T", Paper: "blurred",
			Measured: pass(!leakAddr), Note: ""},
	}}, nil
}

// RunA4 quantifies the introduction's Vonage story with MOS scores.
func RunA4() (*Result, error) {
	// run scores one 150-frame call from Ann to the Vonage server.
	run := func(degrade, neutralized bool, seed int64) (float64, error) {
		w, err := newFigure1World(seed)
		if err != nil {
			return 0, err
		}
		if degrade {
			// The ISP degrades traffic addressed to the competitor's VoIP
			// server: 12% loss plus 150ms delay.
			policy := isp.NewPolicy(w.sim.Rand(),
				isp.Rule{Name: "degrade-vonage", Match: isp.MatchDstAddr(f1Vonage),
					Action: isp.Action{DropProb: 0.12, Delay: 150 * time.Millisecond}},
			)
			w.att.AddTransitHook(policy.Hook())
		}

		const frames = 150
		var lost measure.LossCounter
		var delays measure.Histogram
		frameAt := func(seq uint64) time.Time {
			return benchStart.Add(2*time.Second + time.Duration(seq)*20*time.Millisecond)
		}
		received := func(now time.Time, payload []byte) {
			if len(payload) >= 8 {
				lost.Received++
				delays.Add(now.Sub(frameAt(binary.BigEndian.Uint64(payload))))
			}
		}
		send := func(payload []byte) { _ = w.ann.Send(plainUDP(f1Ann, f1Vonage, 7078, 7078, payload)) }
		if !neutralized {
			w.vonage.SetHandler(func(now time.Time, pkt []byte) { received(now, deliveredPayload(pkt)) })
		} else {
			annHost, vonageHost, err := w.keySetup(w.vonage, seed+50, seed+60)
			if err != nil {
				return 0, err
			}
			vonageHost.SetOnData(func(_ netip.Addr, data []byte) { received(w.sim.Now(), data) })
			if err := annHost.Connect(f1Anycast, f1Vonage, vonageHost.Identity()); err != nil {
				return 0, err
			}
			send = func(payload []byte) { _ = annHost.Send(f1Vonage, payload) }
		}
		for i := 0; i < frames; i++ {
			seq := uint64(i)
			w.sim.ScheduleAt(frameAt(seq), func() {
				lost.Sent++
				payload := make([]byte, 160)
				binary.BigEndian.PutUint64(payload, seq)
				send(payload)
			})
		}
		w.sim.Run()
		return measure.MOS(delays.Mean(), lost.Loss()), nil
	}

	degraded, err := run(true, false, 61)
	if err != nil {
		return nil, err
	}
	cured, err := run(true, true, 62)
	if err != nil {
		return nil, err
	}
	// The ISP's own VoIP service: same topology, no rule applies (its
	// server is local; approximate with the clean path to Vonage without
	// the rule).
	ownMOS, err := run(false, false, 63)
	if err != nil {
		return nil, err
	}

	return &Result{ID: "A4", Title: "Targeted VoIP degradation (Vonage story)", Rows: []Row{
		{Metric: "ISP's own VoIP MOS", Paper: "high", Measured: fmt.Sprintf("%.2f", ownMOS), Note: "undisturbed path"},
		{Metric: "competitor VoIP MOS, no neutralizer", Paper: "driven low",
			Measured: fmt.Sprintf("%.2f", degraded), Note: "12% loss + 150ms targeted delay"},
		{Metric: "competitor VoIP MOS, neutralized", Paper: "restored",
			Measured: fmt.Sprintf("%.2f", cured), Note: "classifier cannot find the flow"},
	}}, nil
}

// pass words a protocol-walk assertion for its row.
func pass(b bool) string {
	if b {
		return "pass"
	}
	return "FAIL"
}

// RunA7 reproduces the §3.1 DNS story: targeted delay of plaintext
// queries, defeated by encrypted queries to an outside resolver.
func RunA7() (*Result, error) {
	sim := netem.NewSimulator(benchStart, 71)
	cl := sim.MustAddNode("client", "att", f1Ann)
	evil := sim.MustAddNode("att-core", "att", f1Att)
	res := sim.MustAddNode("resolver", "cogent", netip.MustParseAddr("10.50.0.53"))
	sim.Connect(cl, evil, netem.LinkConfig{Delay: 2 * time.Millisecond})
	sim.Connect(evil, res, netem.LinkConfig{Delay: 8 * time.Millisecond})
	sim.BuildRoutes()

	id, err := e2e.NewIdentity(detRand(72), 0)
	if err != nil {
		return nil, err
	}
	r := dnssim.NewResolver(res, id)
	r.AddRecord(dnssim.Record{Name: "www.google.com", Addr: f1Google, Neutralizers: []netip.Addr{f1Anycast}})
	r.AddRecord(dnssim.Record{Name: "paying.example", Addr: netip.MustParseAddr("10.10.0.9")})
	policy := isp.NewPolicy(nil, isp.Rule{
		Name:   "delay-google-dns",
		Match:  isp.MatchPayloadContains([]byte("www.google.com")),
		Action: isp.Action{Delay: 500 * time.Millisecond},
	})
	evil.AddTransitHook(policy.Hook())

	n := simnet.New(sim)
	conn, err := n.ListenUDP(cl, 0)
	if err != nil {
		return nil, err
	}
	c := dnssim.NewConnClient(conn, netip.AddrPortFrom(res.Addr(), dnssim.Port), detRand(73))
	// took[i] is lookup i's virtual duration: the targeted name in
	// plaintext, the paying site in plaintext, the targeted name encrypted.
	var took [3]time.Duration
	var goErr error
	n.Go(func() {
		for i, lookup := range []func() (dnssim.Record, error){
			func() (dnssim.Record, error) { return c.Lookup("www.google.com") },
			func() (dnssim.Record, error) { return c.Lookup("paying.example") },
			func() (dnssim.Record, error) { return c.LookupEncrypted(r.Public(), "www.google.com") },
		} {
			t0 := n.Now()
			if _, goErr = lookup(); goErr != nil {
				return
			}
			took[i] = n.Now().Sub(t0)
		}
	})
	if err := n.Run(); err != nil {
		return nil, err
	}
	if goErr != nil {
		return nil, goErr
	}

	return &Result{ID: "A7", Title: "DNS bootstrap under query discrimination", Rows: []Row{
		{Metric: "plaintext lookup of targeted name", Paper: "delayed", Measured: took[0].String(),
			Note: "ISP rule adds 500ms"},
		{Metric: "plaintext lookup of paying site", Paper: "fast", Measured: took[1].String(), Note: ""},
		{Metric: "encrypted lookup of targeted name", Paper: "fast", Measured: took[2].String(),
			Note: "name invisible to the ISP"},
	}}, nil
}
