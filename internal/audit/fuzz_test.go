package audit_test

import (
	"bytes"
	"testing"

	"netneutral/internal/audit"
	"netneutral/internal/benchenv"
)

// fuzzSeeds are real packets from the benchmark environment — the byte
// strings that actually cross the wire next to probe reports — plus
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

// FuzzAuditReport holds the probe-report wire contract under hostile
// input: decoding arbitrary bytes never panics, never over-reads, and
// anything the decoder accepts re-encodes to the identical bytes
// (canonical form); a structurally valid synthetic report always
// round-trips.
func FuzzAuditReport(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed, uint16(3), uint8(2))
	}
	// A syntactically valid empty report and a 1-trial report.
	if b, err := audit.AppendReport(nil, &audit.Report{}); err == nil {
		f.Add(b, uint16(0), uint8(0))
	}
	if b, err := audit.AppendReport(nil, &audit.Report{
		Strategy: audit.StrategyInterleaved,
		Trials:   make([]audit.Trial, 1),
	}); err == nil {
		f.Add(b, uint16(1), uint8(1))
	}

	f.Fuzz(func(t *testing.T, data []byte, vantage uint16, nTrials uint8) {
		// Property 1: arbitrary bytes through the decoder — no panic;
		// accepted reports are canonical (re-encode byte-identical).
		if r, err := audit.DecodeReport(data); err == nil {
			again, err := audit.AppendReport(nil, r)
			if err != nil {
				t.Fatalf("decoded report failed to re-encode: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("decode/encode not canonical: %d in, %d out", len(data), len(again))
			}
		}

		// Property 2: a synthetic report built from the fuzzed operands
		// round-trips exactly. Trial fields are filled from data bytes.
		r := &audit.Report{
			Vantage:  vantage,
			Inside:   vantage%2 == 1,
			Strategy: audit.Strategy(nTrials % 2),
			Trials:   make([]audit.Trial, int(nTrials)%64),
		}
		at := 0
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			v := uint64(0)
			for i := 0; i < 8; i++ {
				v = v<<8 | uint64(data[at%len(data)])
				at++
			}
			return v
		}
		for i := range r.Trials {
			for role := audit.Role(0); role < audit.NumRoles; role++ {
				r.Trials[i].Sent[role] = next()
				r.Trials[i].Delivered[role] = next()
				r.Trials[i].DelaySum[role] = int64(next())
				r.Trials[i].DelayPkts[role] = next()
			}
		}
		wire, err := audit.AppendReport(nil, r)
		if err != nil {
			t.Fatalf("synthetic report rejected by encoder: %v", err)
		}
		got, err := audit.DecodeReport(wire)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if got.Vantage != r.Vantage || got.Inside != r.Inside ||
			got.Strategy != r.Strategy || len(got.Trials) != len(r.Trials) {
			t.Fatal("round trip header mismatch")
		}
		for i := range got.Trials {
			if got.Trials[i] != r.Trials[i] {
				t.Fatalf("round trip trial %d mismatch", i)
			}
		}

		// Property 3: the probe payload header round-trips and rejects
		// short buffers without panicking.
		if len(data) >= audit.ProbeHeaderLen {
			buf := append([]byte(nil), data...)
			audit.PutProbePayload(buf, audit.RoleSuspect, int(vantage), int64(nTrials))
			role, trial, nanos, ok := audit.ParseProbePayload(buf)
			if !ok || role != audit.RoleSuspect || trial != int(vantage) || nanos != int64(nTrials) {
				t.Fatalf("probe payload round trip: %v %v %v %v", role, trial, nanos, ok)
			}
		} else {
			if _, _, _, ok := audit.ParseProbePayload(data); ok {
				t.Fatal("short probe payload accepted")
			}
		}
	})
}
