package measure

import (
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Error("zero-value histogram should report a zero mean")
	}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if got, want := h.Mean(), 50500*time.Microsecond; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
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
