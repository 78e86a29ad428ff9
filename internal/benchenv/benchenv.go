// Package benchenv is the fixed scenario of the paper's §4
// micro-experiments: one neutralizer on the canonical master-key
// schedule and one pre-built packet of every kind it serves. It imports
// only the data plane (core, shim, wire, crypto/*), so those packages'
// fuzz targets can seed from real packets without compiling the
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

// DataHeader derives one flow's shim data header: the session key comes
// from (epoch, nonce, src) — exactly what the stateless neutralizer will
// re-derive — and dst is sealed into the hidden address block.
func DataHeader(sched *keys.Schedule, epoch keys.Epoch, src, dst netip.Addr, nonce keys.Nonce, tweak [8]byte, innerProto uint8) (shim.Header, error) {
	ks, err := sched.SessionKey(epoch, nonce, src)
	if err != nil {
		return shim.Header{}, err
	}
	blk, err := aesutil.EncryptAddr(ks, dst, tweak)
	if err != nil {
		return shim.Header{}, err
	}
	return shim.Header{
		Type: shim.TypeData, InnerProto: innerProto,
		Epoch: epoch, Nonce: nonce, HiddenAddr: blk,
	}, nil
}

// DataPacket builds the neutralized UDP data packet DataHeader's
// credentials authorize: src to the hidden customer dst behind anycast.
func DataPacket(sched *keys.Schedule, epoch keys.Epoch, src, anycast, dst netip.Addr, nonce keys.Nonce, tweak [8]byte, payload []byte) ([]byte, error) {
	hdr, err := DataHeader(sched, epoch, src, dst, nonce, tweak, wire.ProtoUDP)
	if err != nil {
		return nil, err
	}
	return shim.BuildPacket(src, anycast, 0, &hdr, payload)
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
	buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
	buf.PushPayload(payload)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 255, Protocol: wire.ProtoUDP, Src: benchSrc, Dst: benchDst},
		&wire.UDP{SrcPort: 4000, DstPort: 5000},
	); err != nil {
		return nil, err
	}
	env.VanillaPkt = buf.Bytes()
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
	pkts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		s := i % nSources
		src := netip.AddrFrom4([4]byte{172, 16, byte(s >> 8), byte(s)})
		var nonce keys.Nonce
		nonce[0] = byte(s >> 8)
		nonce[1] = byte(s)
		nonce[7] = 1
		pkt, err := DataPacket(e.Sched, e.Epoch, src, benchAnycast, benchDst, nonce, [8]byte{byte(i), byte(i >> 8)}, payload)
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, pkt)
	}
	return pkts, nil
}

// FreshVanilla returns a copy of the vanilla packet (VanillaForward
// mutates TTL in place).
func (e *BenchEnv) FreshVanilla() []byte {
	out := make([]byte, len(e.VanillaPkt))
	copy(out, e.VanillaPkt)
	return out
}
