package wire

import "testing"

func TestSerializeBufferPrepend(t *testing.T) {
	b := NewSerializeBuffer(8, 0)
	b.PushPayload([]byte("xyz"))
	copy(b.PrependBytes(2), "ab")
	if got := string(b.Bytes()); got != "abxyz" {
		t.Errorf("Bytes() = %q, want %q", got, "abxyz")
	}
	// Prepend beyond reserved headroom forces a front-grow.
	copy(b.PrependBytes(10), "0123456789")
	if got := string(b.Bytes()); got != "0123456789abxyz" {
		t.Errorf("after grow: %q", got)
	}
}

func TestSerializeBufferAppendAndClear(t *testing.T) {
	b := NewSerializeBuffer(4, 4)
	b.PushPayload([]byte("end"))
	if got := string(b.Bytes()); got != "end" {
		t.Errorf("Bytes() = %q", got)
	}
	b.Clear(4)
	if b.Len() != 0 {
		t.Errorf("Len after Clear = %d", b.Len())
	}
	b.PushPayload([]byte("pp"))
	if got := string(b.Bytes()); got != "pp" {
		t.Errorf("after Clear+Push: %q", got)
	}
}

func TestSerializeBufferZeroValue(t *testing.T) {
	var b SerializeBuffer
	copy(b.PrependBytes(3), "abc")
	if string(b.Bytes()) != "abc" {
		t.Errorf("zero-value buffer: %q", b.Bytes())
	}
}
