package measure

import (
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("zero-value histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got, want := h.Mean(), 50500*time.Microsecond; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got := h.Quantile(0.5); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Quantile(0.95); got != 95*time.Millisecond {
		t.Errorf("p95 = %v", got)
	}
	if got := h.Quantile(0); got != time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if h.String() == "" {
		t.Error("String empty")
	}
}

func TestHistogramQuantileAfterMoreAdds(t *testing.T) {
	var h Histogram
	h.Add(10 * time.Millisecond)
	_ = h.Quantile(0.5) // sorts
	h.Add(1 * time.Millisecond)
	if got := h.Quantile(0); got != time.Millisecond {
		t.Errorf("histogram must re-sort after Add: p0 = %v", got)
	}
}

func TestMOSCleanCallIsGood(t *testing.T) {
	mos := MOS(20*time.Millisecond, 0)
	if mos < 4.2 {
		t.Errorf("clean call MOS = %v, want >= 4.2", mos)
	}
}

func TestMOSDegradesWithLoss(t *testing.T) {
	clean := MOS(20*time.Millisecond, 0)
	lossy := MOS(20*time.Millisecond, 0.05)
	awful := MOS(20*time.Millisecond, 0.25)
	if !(clean > lossy && lossy > awful) {
		t.Errorf("MOS ordering violated: %v %v %v", clean, lossy, awful)
	}
	if awful > 3.0 {
		t.Errorf("25%% loss should be below 3.0, got %v", awful)
	}
}

func TestMOSDegradesWithDelay(t *testing.T) {
	fast := MOS(20*time.Millisecond, 0)
	slow := MOS(400*time.Millisecond, 0)
	if !(fast > slow) {
		t.Errorf("MOS(20ms)=%v should beat MOS(400ms)=%v", fast, slow)
	}
	if slow > 4.0 {
		t.Errorf("400ms one-way delay should hurt: %v", slow)
	}
}

func TestMOSBounds(t *testing.T) {
	if got := MOS(5*time.Second, 1.0); got != 1 {
		t.Errorf("worst case MOS = %v, want 1", got)
	}
	if got := MOS(0, 0); got > 4.5 {
		t.Errorf("MOS ceiling exceeded: %v", got)
	}
}

func TestLossCounter(t *testing.T) {
	l := LossCounter{Sent: 100, Received: 90}
	if got := l.Loss(); got != 0.1 {
		t.Errorf("Loss = %v", got)
	}
	if (&LossCounter{}).Loss() != 0 {
		t.Error("empty counter loss != 0")
	}
	over := LossCounter{Sent: 10, Received: 12} // duplicates
	if over.Loss() != 0 {
		t.Error("over-receive should clamp to 0")
	}
}
