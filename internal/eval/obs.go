package eval

// Observation wiring shared by the experiments. E6/E9 (metro) and E8
// (audit) can run with the full observability plane attached — an
// obs.Recorder ticking at every epoch barrier and an obs.FlightRecorder
// head-sampling packet events — and fold what was observed into the
// run's deterministic identity. ObsDigest condenses the recorded state
// (time-series rings, sampled-event set, final registry snapshot) into
// a few comparable words, so the worker-identity checks can assert
// "observation itself replays bit-identically" without hauling the
// rings around.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/obs"
)

// observation is one run's attached observability plane: the
// epoch-barrier recorder and the packet flight recorder, both living on
// the simulator's own registry.
type observation struct {
	rec *obs.Recorder
	fr  *obs.FlightRecorder
}

// attachObservation puts the full observability plane on sim before a
// run. The recorder samples every non-volatile family at epoch barriers
// (interval-gated on virtual time); the flight recorder samples 1-in-64
// packet events per shard stripe. Both are pure observers: attaching
// them must not change any run outcome, and what they record is itself
// bit-identical at every worker count. With on false (a config's Observe
// switch) nothing is attached and the nil observation digests to nil.
func attachObservation(sim *netem.Simulator, on bool) *observation {
	if !on {
		return nil
	}
	rec := obs.NewRecorder(sim.Metrics())
	rec.Register()
	sim.OnBarrier(func(now time.Time) { rec.Tick(now.UnixNano()) })
	fr := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 64, RingSize: 4096})
	fr.Register(sim.Metrics())
	sim.AttachFlightRecorder(fr)
	return &observation{rec: rec, fr: fr}
}

// ObsDigest condenses what a run's observers recorded. Two observed
// runs of the same seed must produce equal digests at any worker count;
// E9 folds the digest into its identity key and the worker-identity
// tests compare digests directly.
type ObsDigest struct {
	// RecorderTicks counts barrier samples taken.
	RecorderTicks uint64
	// SeriesPoints totals retained ring points across all series.
	SeriesPoints uint64
	// RingsHash fingerprints every series name and (time, value) point.
	RingsHash uint64
	// FlightSeen and FlightSampled count packet events offered to and
	// retained by the flight recorder.
	FlightSeen, FlightSampled uint64
	// FlightHash fingerprints the merged sampled-event set in the
	// engine's canonical (time, shard, seq) order.
	FlightHash uint64
	// FinalHash fingerprints the final non-volatile registry snapshot:
	// every family name and merged value the run ended with.
	FinalHash uint64
}

// digest reduces the observation to its digest (nil for an unobserved
// run). Call at quiescence (after the run; for E8, after verdicts are
// counted, so the verdict families are covered by FinalHash).
func (o *observation) digest() *ObsDigest {
	if o == nil {
		return nil
	}
	d := &ObsDigest{
		RecorderTicks: o.rec.Ticks(),
		FlightSeen:    o.fr.Seen(),
	}

	h := newFNV()
	for _, s := range o.rec.Series() {
		h.str(s.Name)
		times, vals := s.Points()
		d.SeriesPoints += uint64(len(times))
		for i := range times {
			h.u64(uint64(times[i]))
			h.u64(math.Float64bits(vals[i]))
		}
	}
	d.RingsHash = h.Sum64()

	h = newFNV()
	evs := o.fr.Events()
	d.FlightSampled = uint64(len(evs))
	for _, e := range evs {
		h.u64(uint64(e.TimeNanos))
		h.u64(e.Flow)
		h.u64(e.Journey)
		h.u64(e.Seq)
		h.u64(uint64(uint32(e.Node))<<32 | uint64(uint32(e.Shard)))
		h.u64(uint64(uint32(e.Size))<<8 | uint64(e.Kind))
		// Span coverage: the per-hop attribution components and their
		// cause must replay bit-identically too.
		h.u64(uint64(e.QueueNanos))
		h.u64(uint64(e.SerializeNanos))
		h.u64(uint64(e.PropagateNanos))
		h.u64(uint64(e.PolicyNanos))
		h.u64(uint64(e.ProcNanos))
		h.u64(uint64(e.Cause)<<8 | uint64(e.Class))
	}
	d.FlightHash = h.Sum64()

	h = newFNV()
	for _, m := range o.rec.Registry().Snapshot().Metrics {
		if m.Volatile {
			continue // wall-clock families legitimately differ per run
		}
		h.str(m.Name)
		if m.Hist != nil {
			h.u64(m.Hist.Count)
			h.u64(m.Hist.Sum)
			continue
		}
		h.u64(math.Float64bits(m.Value))
	}
	d.FinalHash = h.Sum64()
	return d
}

// checkAttribution enforces the span attribution invariant on the
// flight recorder's merged events: every tagged-flow journey that was
// recorded end to end and lies wholly past the ring-eviction horizon
// must have its attributed components (queue, serialize, propagate,
// policy, proc) sum *exactly* — not approximately — to its end-to-end
// virtual delay. tagged == nil checks every flow. At least one journey
// must actually be checked, so the invariant cannot pass vacuously.
// visit, when set, sees every journey that passed and may fail it.
func checkAttribution(evs []obs.TraceRec, tagged map[uint64]bool, evicted uint64, visit func(flow uint64, j *obs.Journey) error) error {
	// Eviction discards each stripe's oldest events, which can silently
	// clip a journey's middle hops while leaving its endpoints intact.
	// Only journeys starting at or after the horizon — the latest
	// per-stripe earliest retained timestamp — are provably unclipped.
	var horizon int64
	if evicted > 0 {
		earliest := make(map[int32]int64)
		for i := range evs {
			e := &evs[i]
			if t, ok := earliest[e.Shard]; !ok || e.TimeNanos < t {
				earliest[e.Shard] = e.TimeNanos
			}
		}
		for _, t := range earliest {
			if t > horizon {
				horizon = t
			}
		}
	}
	checked := 0
	for _, sp := range obs.AssembleSpans(evs) {
		if tagged != nil && !tagged[sp.Flow] {
			continue
		}
		for i := range sp.Journeys {
			j := &sp.Journeys[i]
			if !j.Complete() || j.Hops[0].TimeNanos < horizon {
				continue
			}
			if sum, e2e := j.AttrSumNanos(), j.EndToEndNanos(); sum != e2e {
				return fmt.Errorf("attribution invariant: flow %016x journey %d: components sum to %dns, end-to-end delay %dns",
					sp.Flow, j.ID, sum, e2e)
			}
			if visit != nil {
				if err := visit(sp.Flow, j); err != nil {
					return err
				}
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("attribution invariant: no complete tagged journey survived to check (evicted=%d)", evicted)
	}
	return nil
}

// key flattens the digest for identity-key comparison.
func (d *ObsDigest) key() [4]uint64 {
	if d == nil {
		return [4]uint64{}
	}
	return [4]uint64{d.RecorderTicks, d.RingsHash, d.FlightHash, d.FinalHash}
}

// determinismRow closes a worker-identity sweep's rows (E9, E13): what
// was compared across which worker counts, the observation digest's
// share included when the runs were observed.
func determinismRow(o *ObsDigest, compared, where string) Row {
	metric := "determinism"
	if o != nil {
		metric = "determinism (observed)"
		compared += fmt.Sprintf(" + recorder rings (%d ticks) + flight samples (%d events)",
			o.RecorderTicks, o.FlightSampled)
	}
	return Row{Metric: metric, Paper: "bit-identical", Measured: "verified",
		Note: compared + " equal at " + where}
}

// digestHash is the FNV-1a accumulator behind the digest fingerprints.
// word stages u64: a local would escape via the interface and allocate.
type digestHash struct {
	hash.Hash64
	word [8]byte
}

func newFNV() *digestHash { return &digestHash{Hash64: fnv.New64a()} }

// str hashes s with a terminator so adjacent fields cannot alias.
func (h *digestHash) str(s string) {
	_, _ = io.WriteString(h, s) // a hash.Hash never fails a write
	h.word[0] = 0
	_, _ = h.Write(h.word[:1])
}

func (h *digestHash) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.word[:], v)
	_, _ = h.Write(h.word[:])
}
