package simnet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzStreamFrame feeds one arbitrary frame to a fresh stream conn, then
// a DATA frame putFrame built for the next expected sequence number. No
// input panics. A frame shorter than the header, a SYN or an unknown kind
// changes nothing; an in-order DATA frame appends exactly its body and an
// in-order FIN ends the stream; an out-of-order DATA or FIN, or an RST,
// breaks the conn for good. On a conn still open, the built frame
// round-trips: Read returns every body in order.
func FuzzStreamFrame(f *testing.F) {
	f.Add(putFrame(frameDATA, 1, []byte("hello")), []byte("world"))
	f.Add(putFrame(frameSYN, 0, nil), []byte("after a duplicate SYN"))
	f.Add(putFrame(frameFIN, 1, nil), []byte("after FIN"))
	f.Add(putFrame(frameRST, 1, nil), []byte("after RST"))
	f.Add(putFrame(frameDATA, 9, []byte("gap")), []byte("after a gap"))
	f.Add([]byte{frameDATA, 0, 0}, []byte{})
	f.Add([]byte{0xff, 0, 0, 0, 1, 'x'}, []byte("after an unknown kind"))
	n, _, _ := pair(f)
	f.Fuzz(func(t *testing.T, raw, payload []byte) {
		c := newStreamConn(n, nil, nil, func([]byte) error { return nil })
		c.nextSeq = 1
		c.handleFrame(raw)
		var want []byte
		inOrder := len(raw) >= frameHdrLen && binary.BigEndian.Uint32(raw[1:frameHdrLen]) == 1
		switch {
		case len(raw) < frameHdrLen || raw[0] <= frameSYN || raw[0] > frameRST:
			if c.nextSeq != 1 || len(c.rbuf) != 0 || c.eof || c.rerr != nil {
				t.Fatalf("ignored frame %x changed the conn: seq %d, %d bytes, eof %v, err %v", raw, c.nextSeq, len(c.rbuf), c.eof, c.rerr)
			}
		case raw[0] == frameDATA && inOrder:
			if want = raw[frameHdrLen:]; c.nextSeq != 2 || !bytes.Equal(c.rbuf, want) || c.rerr != nil {
				t.Fatalf("in-order DATA %x: seq %d, buffered %x, err %v", raw, c.nextSeq, c.rbuf, c.rerr)
			}
		case raw[0] == frameFIN && inOrder:
			if c.nextSeq != 2 || !c.eof || c.rerr != nil {
				t.Fatalf("in-order FIN %x: seq %d, eof %v, err %v", raw, c.nextSeq, c.eof, c.rerr)
			}
		default:
			if c.rerr == nil {
				t.Fatalf("frame %x (out of order, or RST) left the conn unbroken", raw)
			}
		}
		if c.rerr != nil || c.eof {
			return
		}

		frame := putFrame(frameDATA, c.nextSeq, payload)
		if frame[0] != frameDATA || binary.BigEndian.Uint32(frame[1:frameHdrLen]) != c.nextSeq || !bytes.Equal(frame[frameHdrLen:], payload) {
			t.Fatalf("putFrame(DATA, %d, %x) = %x", c.nextSeq, payload, frame)
		}
		c.handleFrame(frame)
		want = append(bytes.Clone(want), payload...)
		got := make([]byte, 0, len(want))
		buf := make([]byte, 7) // short reads: Read hands out the buffer in pieces
		for len(got) < len(want) {
			m, err := c.Read(buf)
			if err != nil {
				t.Fatalf("Read after %d of %d bytes: %v", len(got), len(want), err)
			}
			got = append(got, buf[:m]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %x, want %x", got, want)
		}
	})
}
