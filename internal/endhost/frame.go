package endhost

import (
	"encoding/binary"
	"net/netip"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/e2e"
	"netneutral/internal/shim"
)

// Application frames ride inside shim payloads:
//
//	ver(1)=1
//	flags(1): bit0 = carries key offer, bit1 = body is e2e-sealed
//	[offer: kind(1) len(2) e2e session offer — kind 1: forward,
//	        kind 2: reverse-init, whose extra is nonce ‖ Ks ‖ epoch]
//	body (sealed or plain):
//	    bflags(1): bit0 = carries grant
//	    [grant: epoch(4) nonce(8) key(16)]
//	    dataLen(2) data
//
// The grant — the neutralizer-stamped (nonce', Ks') refresh pair — always
// travels inside the sealed body, which is what the paper requires: the
// destination returns it "using strong end-to-end encryption". A
// receiver enforces it: a grant in a plain body is refused, and so is a
// plain frame on a conversation that has a session, or one that offers
// to make one.
const (
	frameVersion = 1

	fFlagOffer  = 1 << 0
	fFlagSealed = 1 << 1

	offerKindForward = 1
	offerKindReverse = 2

	bFlagGrant = 1 << 0
)

// reverseExtraLen is the key material a reverse-init offer carries after
// the session seed: nonce(8) + key(16) + epoch(4).
const reverseExtraLen = 8 + aesutil.KeySize + 4

// buildFrame frames application data for the conversation, establishing
// the e2e session on first use when the peer's public key is known.
func (h *Host) buildFrame(c *conv, data []byte) ([]byte, error) {
	var offer []byte
	offerKind := uint8(0)
	if c.sess == nil && !c.customerSide && c.peerPub.Valid() {
		sess, off, err := e2e.Initiate(h.cfg.Rand, c.peerPub, nil)
		if err != nil {
			return nil, err
		}
		c.sess = sess
		offer = off
		offerKind = offerKindForward
	}
	body := h.marshalBody(c, data)
	return h.assembleFrame(c, offerKind, offer, body)
}

// assembleFrame seals body if a session exists and prepends the header.
func (h *Host) assembleFrame(c *conv, offerKind uint8, offer, body []byte) ([]byte, error) {
	var flags uint8
	if c.sess != nil {
		sealed, err := c.sess.Seal(body)
		if err != nil {
			return nil, err
		}
		body = sealed
		flags |= fFlagSealed
	}
	if offer != nil {
		flags |= fFlagOffer
	}
	out := make([]byte, 0, 2+3+len(offer)+len(body))
	out = append(out, frameVersion, flags)
	if offer != nil {
		out = append(out, offerKind, byte(len(offer)>>8), byte(len(offer)))
		out = append(out, offer...)
	}
	out = append(out, body...)
	return out, nil
}

// marshalBody packs the optional pending grant and the data. Including
// the grant consumes it.
func (h *Host) marshalBody(c *conv, data []byte) []byte {
	var body []byte
	if c.hasPendingGrant {
		body = append(body, bFlagGrant)
		var eb [4]byte
		binary.BigEndian.PutUint32(eb[:], uint32(c.pendingGrantEpoch))
		body = append(body, eb[:]...)
		body = append(body, c.pendingGrant.Nonce[:]...)
		body = append(body, c.pendingGrant.Key[:]...)
		c.hasPendingGrant = false
		h.stats.GrantsReturned++
	} else {
		body = append(body, 0)
	}
	var lb [2]byte
	binary.BigEndian.PutUint16(lb[:], uint16(len(data)))
	body = append(body, lb[:]...)
	body = append(body, data...)
	return body
}

// inFrame is a received frame that passed every check, not yet applied
// to the host.
type inFrame struct {
	data    []byte
	sess    *e2e.Session // the conversation's session from this frame on
	grant   *shim.Grant  // a grant from a sealed body
	epoch   keys.Epoch   // the grant's epoch
	reverse []byte       // a reverse-init offer's extra: nonce ‖ Ks ‖ epoch
}

// openFrame checks a frame received on a conversation whose session is
// sess (nil if none): it accepts a session offer, opens a sealed body and
// reads the body. It changes nothing; deliver applies the result. Data is
// nil for control-only frames.
func (h *Host) openFrame(sess *e2e.Session, frame []byte) (inFrame, error) {
	in := inFrame{sess: sess}
	if len(frame) == 0 {
		return in, nil
	}
	if len(frame) < 2 || frame[0] != frameVersion {
		return in, ErrBadFrame
	}
	flags, rest := frame[1], frame[2:]
	sealed := flags&fFlagSealed != 0
	if !sealed && (sess != nil || flags&fFlagOffer != 0) {
		return in, ErrBadFrame
	}
	if flags&fFlagOffer != 0 {
		if len(rest) < 3 || (rest[0] != offerKindForward && rest[0] != offerKindReverse) {
			return in, ErrBadFrame
		}
		kind, n := rest[0], int(rest[1])<<8|int(rest[2])
		if len(rest) < 3+n {
			return in, ErrBadFrame
		}
		if h.cfg.Identity == nil {
			return in, ErrNeedIdentity
		}
		s, extra, err := h.cfg.Identity.Accept(rest[3:3+n], h.cfg.Rand)
		if err != nil {
			return in, err
		}
		switch {
		case kind == offerKindForward && len(extra) == 0:
		case kind == offerKindReverse && len(extra) == reverseExtraLen:
			in.reverse = extra
		default:
			return in, ErrBadFrame
		}
		in.sess, rest = s, rest[3+n:]
	}
	if sealed {
		if in.sess == nil {
			return in, ErrBadFrame
		}
		pt, err := in.sess.Open(rest)
		if err != nil {
			return in, err
		}
		rest = pt
	}
	return in, in.readBody(rest, sealed)
}

// readBody reads a body, taking its grant only if it arrived sealed.
func (in *inFrame) readBody(body []byte, sealed bool) error {
	if len(body) < 1 {
		return ErrBadFrame
	}
	bflags, rest := body[0], body[1:]
	if bflags&bFlagGrant != 0 {
		if !sealed || len(rest) < 4+shim.GrantLen {
			return ErrBadFrame
		}
		in.epoch = keys.Epoch(binary.BigEndian.Uint32(rest[:4]))
		in.grant = new(shim.Grant)
		copy(in.grant.Nonce[:], rest[4:12])
		copy(in.grant.Key[:], rest[12:12+aesutil.KeySize])
		rest = rest[4+shim.GrantLen:]
	}
	if len(rest) < 2 {
		return ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(rest[:2]))
	if len(rest) < 2+n {
		return ErrBadFrame
	}
	if n > 0 {
		in.data = rest[2 : 2+n]
	}
	return nil
}

// deliver applies an accepted frame to conversation c — its session and
// its grant — and hands its data up. It is the one place a received frame
// changes the host.
func (h *Host) deliver(c *conv, in inFrame) {
	h.convs[c.peer] = c
	c.sess = in.sess
	if in.grant != nil {
		h.applyGrant(c.neut, *in.grant, in.epoch)
	}
	h.stats.DataReceived++
	if h.cfg.OnData != nil && in.data != nil {
		h.cfg.OnData(c.peer, in.data)
	}
}

// applyGrant retires the provisional short-RSA-protected key: the paper's
// key-refresh step. The previous pair is kept so in-flight replies still
// decrypt.
func (h *Host) applyGrant(neut netip.Addr, g shim.Grant, epoch keys.Epoch) {
	cd, ok := h.conduits[neut]
	if !ok {
		// A grant for a neutralizer we have no conduit with (e.g. arrived
		// via reverse-init conversation): adopt it outright.
		h.conduits[neut] = &conduit{
			neut: neut, nonce: g.Nonce, key: g.Key, epoch: epoch,
		}
		h.stats.GrantsApplied++
		return
	}
	if cd.nonce == g.Nonce && aesutil.Equal(cd.key, g.Key) {
		return // duplicate grant (retransmitted reply)
	}
	cd.prevNonce, cd.prevKey, cd.hasPrev = cd.nonce, cd.key, true
	cd.nonce, cd.key, cd.epoch = g.Nonce, g.Key, epoch
	cd.provisional = false
	h.stats.GrantsApplied++
}

// sendReverseFirst sends the first packet of a customer-initiated
// conversation: a session offer whose extra is the key material, under
// the peer's public key, plus the sealed first payload (§3.3).
func (h *Host) sendReverseFirst(c *conv, peerPub e2e.PublicKey, g shim.Grant, epoch keys.Epoch, data []byte) error {
	if !peerPub.Valid() {
		return ErrNeedIdentity
	}
	extra := make([]byte, 0, reverseExtraLen)
	extra = append(extra, g.Nonce[:]...)
	extra = append(extra, g.Key[:]...)
	extra = binary.BigEndian.AppendUint32(extra, uint32(epoch))
	sess, offer, err := e2e.Initiate(h.cfg.Rand, peerPub, extra)
	if err != nil {
		return err
	}
	c.sess = sess
	body := h.marshalBody(c, data)
	frame, err := h.assembleFrame(c, offerKindReverse, offer, body)
	if err != nil {
		return err
	}
	sh := &shim.Header{
		Type: shim.TypeReturn, Flags: h.cfg.ReturnFlags,
		Epoch: epoch, Nonce: g.Nonce, ClearAddr: c.peer,
	}
	if err := h.sendShim(c.neut, 0, sh, frame); err != nil {
		return err
	}
	h.stats.DataSent++
	return nil
}

// acceptReverseInit handles a ReturnDelivered whose nonce matches no
// conduit: the §3.3 first packet of a customer-initiated conversation.
// The offer's extra carries (nonce, Ks, epoch); Ks then reveals the
// hidden source. Every check comes before the first change.
func (h *Host) acceptReverseInit(neut netip.Addr, sh *shim.Header) error {
	in, err := h.openFrame(nil, sh.Payload())
	if err != nil {
		return err
	}
	if in.reverse == nil {
		return ErrBadFrame
	}
	var nonce keys.Nonce
	var key aesutil.Key
	copy(nonce[:], in.reverse[:8])
	copy(key[:], in.reverse[8:24])
	if nonce != sh.Nonce {
		return ErrBadFrame
	}
	peer, _, err := aesutil.DecryptAddr(key, sh.HiddenAddr)
	if err != nil {
		return err
	}
	// Adopt the key material as a conduit if we have none with this
	// service (it is bound to our address, so it works for any customer
	// in the domain).
	if _, ok := h.conduits[neut]; !ok {
		epoch := keys.Epoch(binary.BigEndian.Uint32(in.reverse[24:]))
		h.conduits[neut] = &conduit{neut: neut, nonce: nonce, key: key, epoch: epoch}
	}
	c := h.convs[peer]
	if c == nil {
		c = &conv{peer: peer}
	}
	c.neut = neut
	h.deliver(c, in)
	return nil
}
