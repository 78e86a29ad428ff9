package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterStripesMerge(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("test_events_total", "events")
	a, b := v.Stripe(0), v.Stripe(3)
	a.Inc()
	a.Add(9)
	b.Add(90)
	if got := v.Value(); got != 100 {
		t.Fatalf("merged counter = %d, want 100", got)
	}
	if v.Stripe(0) != a {
		t.Fatal("Stripe(0) not stable across calls")
	}
	if r.Counter("test_events_total", "events") != v {
		t.Fatal("re-registration did not return the existing vec")
	}
}

func TestGaugeStripesMerge(t *testing.T) {
	r := NewRegistry()
	v := r.Gauge("test_depth", "depth")
	v.Stripe(0).Set(7)
	v.Stripe(1).Set(3)
	if got := v.Value(); got != 10 {
		t.Fatalf("merged gauge = %d, want 10", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_x", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "")
}

// TestAtomicStripesConcurrent exercises the atomic-stripe path under
// concurrent writers and snapshot readers; run with -race it proves
// the daemon path is data-race free.
func TestAtomicStripesConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("test_concurrent_total", "")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			c := v.AtomicStripe(w)
			for i := 0; i < perWorker; i++ {
				c.Add(1)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := v.Value(); got != workers*perWorker {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*perWorker)
	}
}

func TestBucketMonotoneAndInvertible(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1 << 40, 1<<63 + 1} {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucketOf(%d)=%d below previous %d: not monotone", v, i, prev)
		}
		prev = i
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket %d bounds [%d,%d]", v, i, lo, hi)
		}
		if i >= histBuckets {
			t.Fatalf("bucketOf(%d)=%d out of range %d", v, i, histBuckets)
		}
	}
	// Exhaustive monotonicity + containment over a dense small range.
	prev = 0
	for v := uint64(0); v < 1<<14; v++ {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
		prev = i
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d bounds [%d,%d]", v, i, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_delay_ns", "")
	st := h.Stripe(0)
	// Uniform 1..10000: p50 ≈ 5000, p95 ≈ 9500, p99 ≈ 9900, each
	// within the log-bucket's 12.5% relative error.
	for v := int64(1); v <= 10000; v++ {
		st.Observe(v)
	}
	s := h.Snap()
	if s.Count != 10000 {
		t.Fatalf("count = %d", s.Count)
	}
	checks := []struct {
		q    float64
		want float64
	}{{0.50, 5000}, {0.95, 9500}, {0.99, 9900}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want*0.85 || got > c.want*1.15 {
			t.Errorf("q%.2f = %.0f, want %.0f ± 15%%", c.q, got, c.want)
		}
	}
	if s.Count != 10000 || s.Sum != 10000*10001/2 {
		t.Errorf("count %d, sum %d, want 10000 and %d (exact)", s.Count, s.Sum, 10000*10001/2)
	}
	// Small values are exact.
	st2 := r.Histogram("test_small_ns", "").Stripe(0)
	for i := 0; i < 100; i++ {
		st2.Observe(7)
	}
	if got := r.Histogram("test_small_ns", "").Snap().Quantile(0.5); got != 7 {
		t.Errorf("exact small-bucket quantile = %v, want 7", got)
	}
}

func TestHistogramStripesMerge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_merge_ns", "")
	h.Stripe(0).Observe(10)
	h.Stripe(1).Observe(10)
	h.Stripe(1).ObserveDuration(20 * time.Nanosecond)
	s := h.Snap()
	if s.Count != 3 || s.Sum != 40 {
		t.Fatalf("merged hist count=%d sum=%d, want 3/40", s.Count, s.Sum)
	}
}

func TestSnapshotAndVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "a").Stripe(0).Add(5)
	r.GaugeFunc("test_wall", "w", func() float64 { return 1 }, Volatile())
	r.CounterFunc("test_fn_total", "f", func() uint64 { return 42 })
	live := r.Snapshot()
	if m := live.Get("test_a_total"); m == nil || m.Value != 5 {
		t.Fatalf("snapshot missing test_a_total=5: %+v", m)
	}
	if m := live.Get("test_fn_total"); m == nil || m.Value != 42 {
		t.Fatalf("snapshot missing func counter: %+v", m)
	}
	if live.Get("test_wall") == nil {
		t.Fatal("live snapshot must include volatile families")
	}
	det := r.snapshotAt(123, true)
	if det.Get("test_wall") != nil {
		t.Fatal("deterministic snapshot must exclude volatile families")
	}
	if det.TimeNanos != 123 {
		t.Fatalf("ts = %d", det.TimeNanos)
	}
}

func TestRecorderRingsAndInterval(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ticks_total", "").Stripe(0)
	rec := NewRecorder(r)
	const samples = ringSize + 10
	const step = int64(sampleInterval / 2)
	for now := int64(0); now < samples*int64(sampleInterval); now += step {
		c.Inc()
		rec.Tick(now)
	}
	// Ticks every half interval: every other tick is gated.
	if got := rec.Ticks(); got != samples {
		t.Fatalf("ticks = %d, want %d", got, samples)
	}
	s := rec.byName["test_ticks_total"]
	if s == nil {
		t.Fatal("series missing")
	}
	times, vals := s.Points()
	if len(times) != ringSize {
		t.Fatalf("ring len = %d, want %d", len(times), ringSize)
	}
	// The ring keeps the last ringSize samples, oldest first: sample k
	// is taken at k intervals and carries the value 2k+1.
	for i := range times {
		k := int64(samples - ringSize + i)
		if times[i] != k*int64(sampleInterval) || vals[i] != float64(2*k+1) {
			t.Fatalf("point %d = (%d,%v), want (%d,%v)", i, times[i], vals[i], k*int64(sampleInterval), 2*k+1)
		}
	}
}

func TestRecorderHistogramSeries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h_ns", "").Stripe(0)
	rec := NewRecorder(r)
	h.Observe(100)
	rec.Tick(1)
	for _, name := range []string{"test_h_ns.count", "test_h_ns.p50", "test_h_ns.p95", "test_h_ns.p99"} {
		if rec.byName[name] == nil {
			t.Errorf("missing histogram series %s", name)
		}
	}
}

func TestFlightRecorderSamplingAndTags(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{SampleEvery: 4, RingSize: 8})
	fr.Tag(77)
	st := fr.Stripe(0)
	recorded := 0
	for i := 0; i < 16; i++ {
		take := st.Sample()
		flow := uint64(i) // pretend hash
		if take || st.TaggedFlow(flow) {
			st.Record(TraceRec{TimeNanos: int64(i), Flow: flow})
			recorded++
		}
	}
	// Head sampling takes events 1,5,9,13 (4); none of flows 0..15 is 77.
	if recorded != 4 {
		t.Fatalf("recorded %d, want 4", recorded)
	}
	st2 := fr.Stripe(1)
	if !st2.tagged || !st2.TaggedFlow(77) || st2.TaggedFlow(78) {
		t.Fatal("tag set not visible from new stripe")
	}
	if fr.Seen() != 16 || fr.Sampled() != 4 {
		t.Fatalf("seen=%d sampled=%d", fr.Seen(), fr.Sampled())
	}
}

func TestFlightRecorderRingBoundAndMerge(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{SampleEvery: 1, RingSize: 4})
	a, b := fr.Stripe(0), fr.Stripe(1)
	for i := 0; i < 10; i++ {
		a.Sample()
		a.Record(TraceRec{TimeNanos: int64(100 + i)})
	}
	b.Sample()
	b.Record(TraceRec{TimeNanos: 105})
	evs := fr.Events()
	if len(evs) != 5 {
		t.Fatalf("merged events = %d, want 5 (ring bound 4 + 1)", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		p, q := evs[i-1], evs[i]
		if q.TimeNanos < p.TimeNanos ||
			(q.TimeNanos == p.TimeNanos && q.Shard < p.Shard) {
			t.Fatalf("merge order violated at %d: %+v then %+v", i, p, q)
		}
	}
	if fr.Evicted() != 6 {
		t.Fatalf("evicted = %d, want 6", fr.Evicted())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`test_seen_total{class="voip"}`, "per-class").Stripe(0).Add(3)
	r.Counter(`test_seen_total{class="bulk"}`, "per-class").Stripe(0).Add(4)
	r.Gauge("test_depth", "queue depth").Stripe(0).Set(-2)
	r.Histogram("test_lat_ns", "latency").Stripe(0).Observe(20)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_seen_total counter",
		`test_seen_total{class="voip"} 3`,
		`test_seen_total{class="bulk"} 4`,
		"# TYPE test_depth gauge",
		"test_depth -2",
		"# TYPE test_lat_ns histogram",
		`test_lat_ns_bucket{le="+Inf"} 1`,
		"test_lat_ns_sum 20",
		"test_lat_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE test_seen_total"); n != 1 {
		t.Errorf("TYPE line for shared base emitted %d times, want 1", n)
	}
}

func TestZeroAllocHotPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRegistry()
	c := r.Counter("test_alloc_total", "").Stripe(0)
	g := r.Gauge("test_alloc_depth", "").Stripe(0)
	h := r.Histogram("test_alloc_ns", "").Stripe(0)
	ac := r.Counter("test_alloc_atomic_total", "").AtomicStripe(1)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(5)
		h.Observe(123456)
		ac.Add(1)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}
