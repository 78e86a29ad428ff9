package obs

import (
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_x", "", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("test_x", "", func() float64 { return 0 })
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.CounterFunc("bad name", "", func() uint64 { return 0 })
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
	// Uniform 1..10000: p50 ≈ 5000, p95 ≈ 9500, p99 ≈ 9900, each
	// within the log-bucket's 12.5% relative error.
	for v := int64(1); v <= 10000; v++ {
		h.Observe(v)
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
	// Small values are exact, and registration is get-or-create.
	small := r.Histogram("test_small_ns", "")
	for i := 0; i < 100; i++ {
		small.ObserveDuration(7 * time.Nanosecond)
	}
	if got := r.Histogram("test_small_ns", "").Snap().Quantile(0.5); got != 7 {
		t.Errorf("exact small-bucket quantile = %v, want 7", got)
	}
}

func TestSnapshotAndVolatile(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_a_ns", "a").Observe(5)
	r.GaugeFunc("test_wall", "w", func() float64 { return 1 }, Volatile())
	r.CounterFunc("test_fn_total", "f", func() uint64 { return 42 })
	live := r.Snapshot()
	if m := live.Get("test_a_ns"); m == nil || m.Value != 1 || m.Hist.Sum != 5 {
		t.Fatalf("snapshot missing test_a_ns with one observation of 5: %+v", m)
	}
	if m := live.Get("test_fn_total"); m == nil || m.Value != 42 {
		t.Fatalf("snapshot missing func counter: %+v", m)
	}
	if live.Get("test_wall") == nil {
		t.Fatal("live snapshot must include volatile families")
	}
	if pub := r.snapshotAt(123); pub.TimeNanos != 123 || pub.Get("test_wall") == nil {
		t.Fatalf("published snapshot: ts = %d, volatile family present = %v", pub.TimeNanos, pub.Get("test_wall") != nil)
	}
	// A volatile family stays out of the recorder's digest: runs that
	// differ only in its value digest alike.
	digest := func(wall float64) uint64 {
		r := NewRegistry()
		r.GaugeFunc("test_wall", "w", func() float64 { return wall }, Volatile())
		r.CounterFunc("test_fn_total", "f", func() uint64 { return 42 })
		rec := NewRecorder(r)
		rec.Tick(0)
		sum, samples := rec.Digest()
		if samples != 1 {
			t.Fatalf("samples = %d, want 1 (the volatile family is not sampled)", samples)
		}
		return sum
	}
	if digest(1) != digest(2) {
		t.Fatal("a volatile family's value entered the digest")
	}
}

// recordRun ticks a recorder over one counter for n sampling intervals,
// the counter reading value(k) at sample k, and returns its digest.
func recordRun(n int, value func(k int) uint64) (sum, samples, ticks uint64) {
	r := NewRegistry()
	k := 0
	r.CounterFunc("test_ticks_total", "", func() uint64 { return value(k) })
	rec := NewRecorder(r)
	for ; k < n; k++ {
		rec.Tick(int64(k) * int64(sampleInterval))
	}
	sum, samples = rec.Digest()
	return sum, samples, rec.Ticks()
}

func TestRecorderInterval(t *testing.T) {
	r := NewRegistry()
	var c uint64
	r.CounterFunc("test_ticks_total", "", func() uint64 { return c })
	rec := NewRecorder(r)
	const samples = 522
	const step = int64(sampleInterval / 2)
	for now := int64(0); now < samples*int64(sampleInterval); now += step {
		c++
		rec.Tick(now)
	}
	// Ticks every half interval: every other tick is gated.
	if got := rec.Ticks(); got != samples {
		t.Fatalf("ticks = %d, want %d", got, samples)
	}
	if _, got := rec.Digest(); got != samples {
		t.Fatalf("samples = %d, want %d (one family, one per tick)", got, samples)
	}
	// A gated tick folds nothing: the digest is that of a run ticked once
	// per interval with the values the taken ticks read (sample k
	// reads 2k+1).
	want, _, _ := recordRun(samples, func(k int) uint64 { return uint64(2*k + 1) })
	if got, _ := rec.Digest(); got != want {
		t.Fatalf("digest %016x, want %016x: a gated tick entered it", got, want)
	}
}

// TestRecorderDigestCoversEverySample: two runs whose one counter
// differs at a single early sample, 1 990 samples before the end, digest
// differently; equal runs digest alike. A digest of a window of the
// last samples would miss the difference.
func TestRecorderDigestCoversEverySample(t *testing.T) {
	const n = 2000
	base := func(k int) uint64 { return uint64(3 * k) }
	early := func(k int) uint64 {
		if k == 10 {
			return 1
		}
		return base(k)
	}
	a, an, at := recordRun(n, base)
	b, bn, bt := recordRun(n, base)
	c, cn, ct := recordRun(n, early)
	if a != b {
		t.Fatalf("equal runs digest differently: %016x vs %016x", a, b)
	}
	if an != n || bn != n || cn != n || at != n || bt != n || ct != n {
		t.Fatalf("samples %d/%d/%d ticks %d/%d/%d, want %d each", an, bn, cn, at, bt, ct, n)
	}
	if a == c {
		t.Fatalf("a sample %d ticks before the end left the digest at %016x", n-10, a)
	}
}

// TestRecorderHistogramDigest: a histogram family enters the digest
// by its count and its p50, p95 and p99, each of which moves it.
func TestRecorderHistogramDigest(t *testing.T) {
	digest := func(vals ...int64) uint64 {
		r := NewRegistry()
		h := r.Histogram("test_h_ns", "")
		for _, v := range vals {
			h.Observe(v)
		}
		rec := NewRecorder(r)
		rec.Tick(1)
		sum, samples := rec.Digest()
		if samples != 1 {
			t.Fatalf("samples = %d, want 1 (a histogram is one family value)", samples)
		}
		return sum
	}
	// of returns n zeros followed by m values of 1e6.
	of := func(n, m int) []int64 {
		v := make([]int64, n, n+m)
		for ; m > 0; m-- {
			v = append(v, 1e6)
		}
		return v
	}
	// Each pair differs in one field alone.
	for _, c := range []struct {
		field string
		a, b  []int64
	}{
		{"count", []int64{100}, []int64{100, 100}},
		{"p50", []int64{100}, []int64{200}},
		{"p95", of(96, 4), of(95, 5)}, // p99 reads 1e6 in both
		{"p99", of(100, 0), of(99, 1)},
	} {
		if digest(c.a...) == digest(c.b...) {
			t.Errorf("a change of the histogram's %s left the digest unchanged", c.field)
		}
	}
}

func TestFNVMatchesHashFNV(t *testing.T) {
	h := NewFNV()
	h.Str("netem_delivered_packets_total")
	h.U64(0x0102030405060708)
	ref := fnv.New64a()
	ref.Write([]byte("netem_delivered_packets_total\x00"))
	ref.Write([]byte{8, 7, 6, 5, 4, 3, 2, 1})
	if h.Sum64() != ref.Sum64() {
		t.Fatalf("FNV = %016x, hash/fnv = %016x", h.Sum64(), ref.Sum64())
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
	r.CounterFunc(`test_seen_total{class="voip"}`, "per-class", func() uint64 { return 3 })
	r.CounterFunc(`test_seen_total{class="bulk"}`, "per-class", func() uint64 { return 4 })
	r.GaugeFunc("test_depth", "queue depth", func() float64 { return -2 })
	r.Histogram("test_lat_ns", "latency").Observe(20)
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
	h := NewRegistry().Histogram("test_alloc_ns", "")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(123456)
		h.ObserveDuration(time.Microsecond)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}
