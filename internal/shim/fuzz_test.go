package shim_test

import (
	"bytes"
	"testing"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// shimSeedBodies strips the IP header from real BenchEnv packets so the
// corpus starts from every shim message shape the protocol produces,
// plus neutralizer outputs (Delivered, ReturnDelivered, with and without
// stamped grants).
func shimSeedBodies(f *testing.F) [][]byte {
	f.Helper()
	env, err := benchenv.NewBenchEnv(false, true)
	if err != nil {
		f.Fatal(err)
	}
	var bodies [][]byte
	add := func(pkt []byte) {
		var ip wire.IPv4
		if err := ip.DecodeFromBytes(pkt); err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, ip.Payload())
	}
	add(env.SetupPkt)
	add(env.DataPkt)
	add(env.ReturnPkt)
	add(env.AltPkt)
	// Neutralizer outputs exercise the response-side message types.
	for _, in := range [][]byte{env.SetupPkt, env.DataPkt, env.ReturnPkt} {
		outs, err := env.Neut.ProcessScratch(core.NewScratch(), in)
		if err != nil {
			f.Fatal(err)
		}
		for _, o := range outs {
			add(o.Pkt)
		}
	}
	return bodies
}

// FuzzShimHeaderParse feeds hostile bytes to the shim decoder. Accepted
// inputs must re-serialize and re-decode to the same message (the
// serializer/parser pair is the data plane's wire contract), and the
// cheap classifier peeks must never panic.
func FuzzShimHeaderParse(f *testing.F) {
	for _, body := range shimSeedBodies(f) {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(shim.TypeData)})
	f.Add(bytes.Repeat([]byte{0xff}, shim.HeaderLen))
	f.Add(append([]byte{byte(shim.TypeKeySetupRequest), shim.FlagOffloaded, 17, 0}, bytes.Repeat([]byte{0}, 40)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		shim.PeekType(data)
		var h shim.Header
		if err := h.DecodeFromBytes(data); err != nil {
			return
		}
		// Header-length accounting: everything the payload does not cover
		// is the fixed header plus the body the decoded type and flags
		// call for.
		if len(data)-len(h.Payload()) != h.EncodedLen() {
			t.Fatalf("header+payload != input: %d+%d != %d",
				h.EncodedLen(), len(h.Payload()), len(data))
		}
		buf := wire.NewSerializeBuffer(shim.HeaderLen+len(data), len(h.Payload()))
		buf.PushPayload(h.Payload())
		if err := h.SerializeTo(buf); err != nil {
			t.Fatalf("decoded header failed to reserialize: %v", err)
		}
		var h2 shim.Header
		if err := h2.DecodeFromBytes(buf.Bytes()); err != nil {
			t.Fatalf("reserialized header undecodable: %v", err)
		}
		if h2.Type != h.Type || h2.Flags != h.Flags || h2.InnerProto != h.InnerProto ||
			h2.Epoch != h.Epoch || h2.Nonce != h.Nonce ||
			h2.HiddenAddr != h.HiddenAddr || h2.ClearAddr != h.ClearAddr ||
			h2.Grant != h.Grant ||
			!bytes.Equal(h2.PublicKey, h.PublicKey) ||
			!bytes.Equal(h2.Ciphertext, h.Ciphertext) {
			t.Fatal("round-tripped shim fields diverge")
		}
		if !bytes.Equal(h2.Payload(), h.Payload()) {
			t.Fatal("round-tripped shim payload diverges")
		}
		if pt, ok := shim.PeekType(data); !ok || pt != h.Type {
			t.Fatalf("PeekType disagrees with decoder: %v vs %v (ok=%v)", pt, h.Type, ok)
		}
	})
}
