package audit_test

import (
	"bytes"
	"testing"

	"netneutral/internal/audit"
	"netneutral/internal/benchenv"
)

// fuzzSeeds are real packets from the benchmark environment — the byte
// strings that actually cross the wire next to probe payloads — plus
// edge shapes.
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
		env.DataPkt[20:],
		{},
		bytes.Repeat([]byte{0xAD}, 7),
	}
}

// FuzzProbePayload holds the probe header contract — the bytes a
// vantage agent parses after they crossed the emulated network — under
// hostile input: parsing arbitrary bytes never panics and accepts only
// known roles, a written header parses back to exactly what was
// written without touching the payload behind it, and buffers shorter
// than the header are refused.
func FuzzProbePayload(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed, uint16(3), int64(2))
	}
	// Well-formed headers: a measured suspect packet and an unmeasured
	// control packet.
	measured := make([]byte, 160)
	audit.PutProbePayload(measured, audit.RoleSuspect, 3, 1e9)
	f.Add(measured, uint16(3), int64(1e9))
	warmup := make([]byte, audit.ProbeHeaderLen)
	audit.PutProbePayload(warmup, audit.RoleControl, audit.NoTrial, 0)
	f.Add(warmup, uint16(audit.NoTrial), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, trial uint16, sentNanos int64) {
		if role, _, _, ok := audit.ParseProbePayload(data); ok && role >= audit.NumRoles {
			t.Fatalf("parser accepted unknown role %d", role)
		}
		if len(data) < audit.ProbeHeaderLen {
			if _, _, _, ok := audit.ParseProbePayload(data); ok {
				t.Fatal("short probe payload accepted")
			}
			return
		}
		for role := audit.Role(0); role < audit.NumRoles; role++ {
			buf := append([]byte(nil), data...)
			audit.PutProbePayload(buf, role, int(trial), sentNanos)
			gotRole, gotTrial, gotNanos, ok := audit.ParseProbePayload(buf)
			if !ok || gotRole != role || gotTrial != int(trial) || gotNanos != sentNanos {
				t.Fatalf("probe payload round trip: %v %v %v %v", gotRole, gotTrial, gotNanos, ok)
			}
			if !bytes.Equal(buf[audit.ProbeHeaderLen:], data[audit.ProbeHeaderLen:]) {
				t.Fatal("PutProbePayload wrote past the header")
			}
		}
	})
}
