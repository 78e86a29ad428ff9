// Package cloak implements end-host countermeasures against the
// statistical traffic-analysis adversary of package dpi. The
// neutralizer (and encryption generally) hides *who* is communicating;
// the wire image — packet sizes and timing — still fingerprints *what*
// application is running. Cloaking flattens that image, at a measured
// cost:
//
//   - Padding to one size: every application payload is wrapped in a
//     length-prefixed frame padded up to FrameSize, collapsing the size
//     histogram. Cost: wasted goodput (Stats.Overhead).
//   - Timing quantization: frames leave one per tick on a fixed 2.5ms
//     grid (Shaper), above every app's peak rate, erasing inter-arrival
//     structure. Cost: added latency (Stats.AvgDelay).
//   - Cover traffic: idle ticks emit padding-only frames of the same
//     size that the receiver discards, so silence is indistinguishable
//     from talk. Cost: wire bytes that carry nothing.
//
// Frames ride wherever the application payload rode — inside shim Data
// packets on the neutralized path, or inside plain UDP — and decode
// back to the exact original payload (FuzzCloakFrame holds the
// round-trip and no-over-read properties). Together the three make
// every flow the same constant-rate, constant-size stream: the dpi
// classifier's accuracy falls to chance, which is E7's measured
// arms-race endpoint.
package cloak

import (
	"encoding/binary"
	"errors"
)

// Frame layout: magic(1) flags(1) origLen(2 BE) payload padding.
const (
	frameMagic = 0xCF

	// FrameOverhead is the fixed header cost of a cloak frame.
	FrameOverhead = 4

	// FrameSize is the wire size every frame is padded to; a payload too
	// large for it gets a frame of exactly its framed size (never
	// truncated).
	FrameSize = 1400

	// flagCover marks a padding-only frame carrying no payload.
	flagCover = 1 << 0
)

// Errors returned by frame decoding.
var (
	ErrFrameTooShort = errors.New("cloak: frame too short")
	ErrBadMagic      = errors.New("cloak: not a cloak frame")
	ErrBadLength     = errors.New("cloak: length exceeds frame")
)

// AppendFrame appends the padded frame for payload to dst and returns
// the extended slice. With sufficient capacity it does not allocate.
func AppendFrame(dst, payload []byte) []byte {
	return appendFrame(dst, payload, 0, max(len(payload)+FrameOverhead, FrameSize))
}

// AppendCover appends a padding-only cover frame of FrameSize wire bytes.
func AppendCover(dst []byte) []byte {
	return appendFrame(dst, nil, flagCover, FrameSize)
}

// MaxPayload is the largest payload a frame can carry (16-bit length).
const MaxPayload = 0xffff

func appendFrame(dst, payload []byte, flags uint8, total int) []byte {
	if len(payload) > MaxPayload {
		panic("cloak: payload exceeds MaxPayload")
	}
	start := len(dst)
	if start+total <= cap(dst) {
		dst = dst[:start+total]
	} else {
		grown := make([]byte, start+total)
		copy(grown, dst)
		dst = grown
	}
	f := dst[start : start+total]
	f[0] = frameMagic
	f[1] = flags
	binary.BigEndian.PutUint16(f[2:4], uint16(len(payload)))
	copy(f[FrameOverhead:], payload)
	for i := FrameOverhead + len(payload); i < total; i++ {
		f[i] = 0
	}
	return dst
}

// DecodeFrame parses a cloak frame, returning the original payload (a
// view into frame — copy to retain) and whether the frame is cover
// traffic. The payload is bounded by the declared length: trailing
// padding is ignored, and a declared length past the frame's end is an
// error, never an over-read.
func DecodeFrame(frame []byte) (payload []byte, cover bool, err error) {
	if len(frame) < FrameOverhead {
		return nil, false, ErrFrameTooShort
	}
	if frame[0] != frameMagic {
		return nil, false, ErrBadMagic
	}
	n := int(binary.BigEndian.Uint16(frame[2:4]))
	if FrameOverhead+n > len(frame) {
		return nil, false, ErrBadLength
	}
	return frame[FrameOverhead : FrameOverhead+n], frame[1]&flagCover != 0, nil
}
