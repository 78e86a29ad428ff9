package eval

import (
	"bytes"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/netem"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// perPacket credentials one packet from scratch, the way every template
// was once built: derive Ks, seal dst under it, serialize.
func perPacket(t *testing.T, sched *keys.Schedule, epoch keys.Epoch, src, anycast, dst netip.Addr,
	nonce keys.Nonce, tweak [8]byte, innerProto uint8, payload []byte) []byte {
	t.Helper()
	ks, err := sched.SessionKey(epoch, nonce, src)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := aesutil.EncryptAddr(ks, dst, tweak)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := shim.BuildPacket(src, anycast, 0, &shim.Header{
		Type: shim.TypeData, InnerProto: innerProto, Epoch: epoch, Nonce: nonce, HiddenAddr: blk,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// checkSlots holds a template set to its slab's contract: each template
// is capped at its length, so an append to one leaves the next intact.
func checkSlots(t *testing.T, name string, templates [][]byte) {
	t.Helper()
	for i, tmpl := range templates {
		if cap(tmpl) != len(tmpl) {
			t.Fatalf("%s template %d: cap %d, len %d", name, i, cap(tmpl), len(tmpl))
		}
		if i+1 < len(templates) {
			next := bytes.Clone(templates[i+1])
			_ = append(tmpl, 0xff, 0xff, 0xff, 0xff)
			if !bytes.Equal(templates[i+1], next) {
				t.Fatalf("%s: an append to template %d wrote over template %d", name, i, i+1)
			}
		}
	}
}

// TestTemplatesMatchPerPacketPath: E6's and E13's templates, sealed under
// one session key per flow into one slab, are byte for byte what the
// per-packet path builds, and stay in their slots.
func TestTemplatesMatchPerPacketPath(t *testing.T) {
	payload := make([]byte, 64)
	const hosts = 1000
	w, err := buildMetroWorld(1, hosts, 1, netem.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.templates) != hosts {
		t.Fatalf("%d E6 templates, want %d", len(w.templates), hosts)
	}
	for i, got := range w.templates {
		want := perPacket(t, w.Sched, w.Epoch, w.Fan.OutsideAddr(0), w.Fan.Spec.Anycast, w.Fan.HostAddr(i),
			keys.Nonce{0xE6, 1}, [8]byte{byte(i), byte(i >> 8), byte(i >> 16)}, wire.ProtoUDP, payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("E6 template %d differs from the per-packet path", i)
		}
	}
	checkSlots(t, "E6", w.templates)

	cfg := BackboneConfig{Seed: 1}
	cfg.fill()
	bw, err := buildBackboneWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := benchenv.NewSchedule()
	epoch := sched.EpochAt(bw.sim.Now())
	n := min(cfg.HostsPerMetro, 64)
	stride := cfg.HostsPerMetro/n | 1
	if len(bw.neutTemplates) != cfg.Metros {
		t.Fatalf("%d E13 template sets, want %d", len(bw.neutTemplates), cfg.Metros)
	}
	for m, set := range bw.neutTemplates {
		f, dst := bw.bb.Metros[m], bw.bb.Metros[(m+1)%cfg.Metros]
		if len(set) != n {
			t.Fatalf("metro %d: %d E13 templates, want %d", m, len(set), n)
		}
		for k, got := range set {
			want := perPacket(t, sched, epoch, f.OutsideAddr(0), dst.Spec.Anycast, dst.HostAddr(k*stride%cfg.HostsPerMetro),
				keys.Nonce{0xE1, 3, byte(m)}, [8]byte{byte(m), byte(k), byte(k >> 8)}, wire.ProtoUDP, payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("E13 metro %d template %d differs from the per-packet path", m, k)
			}
		}
		checkSlots(t, "E13", set)
	}
}

// TestMetroBuildAllocsFlat: E6's build makes one flow and one slab for
// its 10 000 templates, so its heap objects do not grow with the hosts
// (10 505 when each template derived its own key and had its own
// allocation). Not parallel: the malloc count is process-wide.
func TestMetroBuildAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w, err := buildMetroWorld(1, 10000, 1, netem.LinkConfig{})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	objs := m1.Mallocs - m0.Mallocs
	t.Logf("a 10 000-host E6 build: %d heap objects, %.2f MB", objs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	if objs > 1000 {
		t.Errorf("a 10 000-host E6 build made %d heap objects, want at most 1 000", objs)
	}
	runtime.KeepAlive(w)
}

// TestFlowSenderZeroAlloc: a credentialed flow's send lays its packet out
// in the buffer the sender keeps, so after the first send it allocates
// nothing, plaintext or neutralized, and the packet on the wire is the
// per-packet path's.
func TestFlowSenderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	for _, mode := range []ArmsMode{ModePlaintext, ModeEncrypted} {
		env, err := newFanoutEnv(1, netem.FanoutSpec{Hosts: 4}, true)
		if err != nil {
			t.Fatal(err)
		}
		var seen []byte
		env.Fan.Transit.AddTransitHook(func(_ time.Time, _ *netem.Node, pkt []byte) netem.Verdict {
			if seen == nil {
				seen = bytes.Clone(pkt)
			}
			return netem.Deliver
		})
		fl := flowSpec{Src: env.Fan.Outside[0], Dst: env.Fan.HostAddr(2), Mode: mode, Port: 5004, Index: 3, Exp: 7}
		send, err := env.flowSender(fl)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 200)
		step := func() {
			send(payload)
			env.Sim.Run()
		}
		step() // warm the buffer, the pool and the event lanes
		want, err := wire.AppendUDP(nil, fl.Src.Addr(), fl.Dst, probeSrcPort, fl.Port, payload)
		if err != nil {
			t.Fatal(err)
		}
		if mode != ModePlaintext {
			want = perPacket(t, env.Sched, env.Epoch, fl.Src.Addr(), env.Fan.Spec.Anycast, fl.Dst,
				keys.Nonce{0, 3, 0, 0, 0, 0, 0, 0xE7}, [8]byte{3, 0, 0xA7}, 0, payload)
		}
		if !bytes.Equal(seen, want) {
			t.Errorf("%v: the flow sent\n%x\nwant\n%x", mode, seen, want)
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%v: a send allocates %.1f times, want 0", mode, allocs)
		}
	}
}
