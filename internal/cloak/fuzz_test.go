package cloak_test

import (
	"bytes"
	"testing"

	"netneutral/internal/benchenv"
	"netneutral/internal/cloak"
)

// fuzzSeeds are real packets from the benchmark environment: the exact
// byte strings the cloak layer wraps on the neutralized path (whole
// shim datagrams and their payloads), plus edge shapes.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	env, err := benchenv.NewBenchEnv(false, false)
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		env.DataPkt,
		env.ReturnPkt,
		env.SetupPkt,
		env.VanillaPkt,
		env.DataPkt[20:], // shim payload view
		{},
		bytes.Repeat([]byte{0xCF}, 64),
	}
}

// FuzzCloakFrame holds the cloak wire contract under hostile input:
// encoding any payload round-trips exactly through DecodeFrame, and
// decoding arbitrary bytes never panics or reads past the frame.
func FuzzCloakFrame(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{0xCF, 0, 0xFF, 0xFF, 1})
	f.Add([]byte{0xCF, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > cloak.MaxPayload {
			data = data[:cloak.MaxPayload]
		}
		// Property 1: arbitrary bytes through the decoder — no panic,
		// and any accepted payload stays inside the frame.
		if payload, _, err := cloak.DecodeFrame(data); err == nil {
			if len(payload) > len(data)-cloak.FrameOverhead {
				t.Fatalf("decoded payload %dB from %dB frame", len(payload), len(data))
			}
		}

		// Property 2: encode/decode round trip, payloads larger than a
		// frame included.
		frame := cloak.AppendFrame(nil, data)
		if len(frame) < cloak.FrameSize {
			t.Fatalf("frame shorter than FrameSize: %d", len(frame))
		}
		got, cover, err := cloak.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if cover {
			t.Fatal("payload frame decoded as cover")
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(data), len(got))
		}

		// Property 3: cover frames decode as cover with no payload.
		coverFrame := cloak.AppendCover(nil)
		payload, isCover, err := cloak.DecodeFrame(coverFrame)
		if err != nil || !isCover || len(payload) != 0 {
			t.Fatalf("cover decode: payload=%d cover=%v err=%v", len(payload), isCover, err)
		}
	})
}
