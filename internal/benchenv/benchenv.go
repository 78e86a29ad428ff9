// Package benchenv is the fixed scenario of the paper's §4
// micro-experiments: one neutralizer on the canonical master-key
// schedule and one pre-built packet of every kind it serves. It also
// credentials the harness's data packets: a Flow derives and expands a
// source's session key once and seals each packet's hidden destination
// with one AES block, and Templates writes a set of packets into one
// slab, as E5's batch, E6's per-host and E13's per-metro templates are.
// It imports only the data plane (core, shim, wire, crypto/*), so those
// packages' fuzz targets can seed from real packets without compiling the
// emulator; internal/eval and the testing.B suite build on it too.
package benchenv

import (
	"crypto/rand"
	"fmt"
	"net/netip"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Start is the instant every scenario is anchored at: the master-key
// schedule's first epoch and internal/eval's simulators begin here.
var Start = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)

// Paper constants for the fixed benchmark scenario.
var (
	benchAnycast = netip.MustParseAddr("10.200.0.1")
	benchSrc     = netip.MustParseAddr("172.16.1.10")
	benchDst     = netip.MustParseAddr("10.10.0.5")
	benchCustNet = netip.MustParsePrefix("10.10.0.0/16")
)

// NewSchedule returns the canonical master-key schedule every
// experiment's neutralizers run on: key {7}, hourly epochs from Start.
func NewSchedule() *keys.Schedule {
	return keys.NewSchedule(aesutil.Key{7}, Start, time.Hour)
}

// Flow is one outside source's credential, set up once as in the paper:
// Ks = hash(KM, nonce, src) derived from (epoch, nonce, src), exactly
// what the stateless neutralizer will re-derive, and expanded once, so
// each packet costs one AES block to seal its hidden destination.
type Flow struct {
	src netip.Addr
	ks  aesutil.ExpandedKey
	hdr shim.Header // a data header; HiddenAddr is sealed per packet
}

// NewFlow derives and expands src's session key under (epoch, nonce).
func NewFlow(sched *keys.Schedule, epoch keys.Epoch, src netip.Addr, nonce keys.Nonce, innerProto uint8) (Flow, error) {
	ks, err := sched.SessionKey(epoch, nonce, src)
	if err != nil {
		return Flow{}, err
	}
	f := Flow{src: src, hdr: shim.Header{Type: shim.TypeData, InnerProto: innerProto, Epoch: epoch, Nonce: nonce}}
	f.ks.Expand(ks)
	return f, nil
}

// Header is the flow's shim data header with dst sealed into the hidden
// address block under tweak.
func (f *Flow) Header(dst netip.Addr, tweak [8]byte) (shim.Header, error) {
	h := f.hdr
	blk, ok := f.ks.EncryptAddrX(dst, tweak)
	if !ok {
		return shim.Header{}, fmt.Errorf("benchenv: destination %v is not IPv4", dst)
	}
	h.HiddenAddr = blk
	return h, nil
}

// AppendData appends the neutralized data packet the flow's credentials
// authorize to b: src to the hidden customer dst behind anycast.
func (f *Flow) AppendData(b []byte, anycast, dst netip.Addr, tweak [8]byte, payload []byte) ([]byte, error) {
	h, err := f.Header(dst, tweak)
	if err != nil {
		return nil, err
	}
	return shim.AppendPacket(b, f.src, anycast, 0, &h, payload)
}

// DataLen is the length of a data packet carrying n payload bytes.
func DataLen(n int) int { return wire.IPv4HeaderLen + shim.DataOverhead + n }

// Templates writes n packets into one slab, packet i appended by put,
// and returns cap-limited views of it, slab[off:end:end]: an append to one
// template reallocates it rather than writing over the next. size is
// what one packet takes, so the slab is made once.
func Templates(n, size int, put func(b []byte, i int) ([]byte, error)) ([][]byte, error) {
	slab, views := make([]byte, 0, n*size), make([][]byte, n)
	for i := range views {
		off := len(slab)
		var err error
		if slab, err = put(slab, i); err != nil {
			return nil, err
		}
		views[i] = slab[off:len(slab):len(slab)]
	}
	return views, nil
}

// DataPacket builds the neutralized UDP data packet src's credentials
// under (epoch, nonce) authorize: src to the hidden customer dst behind
// anycast.
func DataPacket(sched *keys.Schedule, epoch keys.Epoch, src, anycast, dst netip.Addr, nonce keys.Nonce, tweak [8]byte, payload []byte) ([]byte, error) {
	f, err := NewFlow(sched, epoch, src, nonce, wire.ProtoUDP)
	if err != nil {
		return nil, err
	}
	return f.AppendData(nil, anycast, dst, tweak, payload)
}

// BenchEnv packages a neutralizer and pre-built packets for the
// micro-experiments and the testing.B suite.
type BenchEnv struct {
	Neut      *core.Neutralizer
	Sched     *keys.Schedule
	ClientKey *lightrsa.PrivateKey
	AltKey    *lightrsa.PrivateKey
	cfg       core.Config

	// SetupPkt is a Figure 2(a) key-setup request.
	SetupPkt []byte
	// DataPkt is a 64-byte-payload forward data packet with a valid
	// session key (the paper's 112-byte experiment; 124 bytes in our
	// encoding).
	DataPkt []byte
	// ReturnPkt is a customer return packet.
	ReturnPkt []byte
	// AltPkt is an alternative-mode (§3.2) first packet.
	AltPkt []byte
	// VanillaPkt is a plain IPv4/UDP packet of the same payload size for
	// the forwarding baseline.
	VanillaPkt []byte

	Nonce keys.Nonce
	Ks    aesutil.Key
	Epoch keys.Epoch
}

// NewBenchEnv builds the environment. offload configures helper
// delegation; altMode installs the alternative-design identity.
func NewBenchEnv(offload bool, altMode bool) (*BenchEnv, error) {
	sched := NewSchedule()
	cfg := core.Config{
		Schedule:   sched,
		Anycast:    benchAnycast,
		IsCustomer: func(a netip.Addr) bool { return benchCustNet.Contains(a) },
		Clock:      func() time.Time { return Start.Add(10 * time.Minute) },
	}
	env := &BenchEnv{Sched: sched}
	var err error
	env.ClientKey, err = lightrsa.GenerateKey(rand.Reader, lightrsa.DefaultBits)
	if err != nil {
		return nil, err
	}
	if offload {
		cfg.Offload = &core.OffloadPolicy{Helpers: []netip.Addr{benchDst}}
	}
	if altMode {
		env.AltKey, err = lightrsa.GenerateKey(rand.Reader, lightrsa.DefaultBits)
		if err != nil {
			return nil, err
		}
		cfg.AltIdentity = env.AltKey
	}
	env.Neut, err = core.New(cfg)
	if err != nil {
		return nil, err
	}
	env.cfg = cfg

	// Credentials as the stateless derivation would produce them.
	env.Epoch = sched.EpochAt(cfg.Clock())
	env.Nonce = keys.Nonce{1, 2, 3, 4, 5, 6, 7, 8}
	env.Ks, err = sched.SessionKey(env.Epoch, env.Nonce, benchSrc)
	if err != nil {
		return nil, err
	}

	env.SetupPkt, err = shim.BuildPacket(benchSrc, benchAnycast, 0, &shim.Header{
		Type: shim.TypeKeySetupRequest, PublicKey: env.ClientKey.PublicKey.Marshal(),
	}, nil)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 64)
	env.DataPkt, err = DataPacket(sched, env.Epoch, benchSrc, benchAnycast, benchDst, env.Nonce, [8]byte{9}, payload)
	if err != nil {
		return nil, err
	}
	env.ReturnPkt, err = shim.BuildPacket(benchDst, benchAnycast, 0, &shim.Header{
		Type: shim.TypeReturn, InnerProto: wire.ProtoUDP,
		Epoch: env.Epoch, Nonce: env.Nonce, ClearAddr: benchSrc,
	}, payload)
	if err != nil {
		return nil, err
	}
	if altMode {
		d4 := benchDst.As4()
		ct, err := env.AltKey.PublicKey.Encrypt(rand.Reader, append(d4[:], 1, 2, 3, 4, 5, 6, 7, 8))
		if err != nil {
			return nil, err
		}
		env.AltPkt, err = shim.BuildPacket(benchSrc, benchAnycast, 0, &shim.Header{
			Type: shim.TypeAltData, InnerProto: wire.ProtoUDP, Ciphertext: ct,
		}, payload)
		if err != nil {
			return nil, err
		}
	}
	if env.VanillaPkt, err = wire.AppendUDP(nil, benchSrc, benchDst, 4000, 5000, payload); err != nil {
		return nil, err
	}
	env.VanillaPkt[8] = 255 // TTL: E3 forwards one copy 200 times before it takes a fresh one
	if err := wire.RepairChecksum(env.VanillaPkt); err != nil {
		return nil, err
	}
	return env, nil
}

// NeutralizerConfig returns the configuration the bench neutralizer was
// built with, so callers can construct pools of interchangeable replicas
// against the same schedule.
func (e *BenchEnv) NeutralizerConfig() core.Config { return e.cfg }

// DataBatch builds n forward-path data packets drawn from nSources
// distinct outside sources (cycling), each carrying a hidden customer
// destination encrypted under the session key the stateless neutralizer
// will re-derive from the packet alone. It feeds the sharded-data-plane
// experiment (E5), E3's first-packet row, and the fuzz seed corpora.
func (e *BenchEnv) DataBatch(nSources, n int) ([][]byte, error) {
	if nSources <= 0 || nSources > 0xffff {
		return nil, fmt.Errorf("benchenv: bad source count %d", nSources)
	}
	payload := make([]byte, 64)
	return Templates(n, DataLen(len(payload)), func(b []byte, i int) ([]byte, error) {
		s := i % nSources // consecutive packets come from distinct sources, so each keys its own
		var nonce keys.Nonce
		nonce[0], nonce[1], nonce[7] = byte(s>>8), byte(s), 1
		f, err := NewFlow(e.Sched, e.Epoch, netip.AddrFrom4([4]byte{172, 16, byte(s >> 8), byte(s)}), nonce, wire.ProtoUDP)
		if err != nil {
			return nil, err
		}
		return f.AppendData(b, benchAnycast, benchDst, [8]byte{byte(i), byte(i >> 8)}, payload)
	})
}

// FreshVanilla returns a copy of the vanilla packet (VanillaForward
// mutates TTL in place).
func (e *BenchEnv) FreshVanilla() []byte {
	out := make([]byte, len(e.VanillaPkt))
	copy(out, e.VanillaPkt)
	return out
}
