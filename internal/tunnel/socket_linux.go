//go:build linux && (amd64 || arm64)

package tunnel

import (
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// Socket returns the driver that serves c: ReadBatch is one non-blocking
// recvmmsg, or recvfrom for one slot (every read at W = 1; it costs less),
// and WriteBatch one sendmmsg (more only to step past a failed datagram),
// inside c's RawConn, so a reader with nothing queued parks in the
// netpoller and Close ends it with net.ErrClosed. A source reads as
// ReadFromUDPAddrPort reports it, IPv4-mapped on an IPv6 socket, and an
// IPv4 destination in either form is written as a sockaddr_in, which a
// dual-stack socket accepts (TestSocketDualStack). Zones are not kept, so
// a link-local IPv6 peer cannot be answered: its writes fail and count.
func Socket(c *net.UDPConn) (Conn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &socket{UDPConn: c, rc: rc}, nil
}

type socket struct {
	*net.UDPConn // for Close
	rc           syscall.RawConn
	pool         sync.Pool // of *mmsgs: one per call in flight
}

// sysSendmmsg is sendmmsg's number, which package syscall names on arm64 only.
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

// mmsghdr is struct mmsghdr: a message and the bytes it carried.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// mmsgs is one call's message vector, with RawConn callbacks built once.
type mmsgs struct {
	hdrs        []mmsghdr
	iovs        []syscall.Iovec
	names       []syscall.RawSockaddrInet6 // large enough for either family
	n, done     int                        // messages; received, or sent or failed
	errno       syscall.Errno              // the read's failure
	waited      bool                       // the read found nothing queued at first
	errs        []error                    // the write's, per datagram
	read, write func(fd uintptr) bool
}

// get returns a vector of len(bufs) messages that point at bufs.
func (s *socket) get(bufs [][]byte) *mmsgs {
	m, _ := s.pool.Get().(*mmsgs)
	if m == nil {
		m = &mmsgs{}
		m.read, m.write = m.recv, m.send
	}
	if len(m.hdrs) < len(bufs) {
		m.hdrs, m.iovs, m.names = make([]mmsghdr, len(bufs)), make([]syscall.Iovec, len(bufs)), make([]syscall.RawSockaddrInet6, len(bufs))
	}
	for i, b := range bufs {
		m.iovs[i] = syscall.Iovec{Base: unsafe.SliceData(b), Len: uint64(len(b))}
		m.hdrs[i].hdr = syscall.Msghdr{Name: (*byte)(unsafe.Pointer(&m.names[i])), Namelen: syscall.SizeofSockaddrInet6, Iov: &m.iovs[i], Iovlen: 1}
	}
	m.n, m.done, m.errno, m.waited = len(bufs), 0, 0, false
	return m
}

func (m *mmsgs) recv(fd uintptr) bool {
	for {
		var r uintptr
		var e syscall.Errno
		if m.n == 1 {
			r, _, e = syscall.Syscall6(syscall.SYS_RECVFROM, fd, uintptr(unsafe.Pointer(m.iovs[0].Base)), uintptr(m.iovs[0].Len),
				syscall.MSG_DONTWAIT, uintptr(unsafe.Pointer(&m.names[0])), uintptr(unsafe.Pointer(&m.hdrs[0].hdr.Namelen)))
			m.hdrs[0].len, r = uint32(r), 1
		} else {
			r, _, e = syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(m.n), syscall.MSG_DONTWAIT, 0, 0)
		}
		if e == syscall.EAGAIN {
			m.waited = true
			return false // nothing queued: park until something is
		}
		if e != syscall.EINTR {
			m.done, m.errno = int(r), e // after a failure, done is not read
			return true
		}
	}
}

// send resumes after the datagram sendmmsg stopped at, which it reports
// failed only when that opens a call: a failure costs only itself.
func (m *mmsgs) send(fd uintptr) bool {
	for i := m.done; i < m.n; i = m.done {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&m.hdrs[i])), uintptr(m.n-i), 0, 0, 0)
		switch e {
		case 0:
			m.done += int(r)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false // the send buffer is full: wait until it is not
		default:
			m.errs[i], m.done = os.NewSyscallError("sendmmsg", e), i+1
		}
	}
	return true
}

func (s *socket) ReadBatch(bufs [][]byte, n []int, from []netip.AddrPort) (int, bool, error) {
	m := s.get(bufs)
	defer s.pool.Put(m)
	if err := s.rc.Read(m.read); err != nil {
		return 0, false, err
	}
	if m.errno != 0 {
		return 0, false, os.NewSyscallError("recv", m.errno)
	}
	for i := 0; i < m.done; i++ {
		n[i], from[i] = int(m.hdrs[i].len), addrPort(&m.names[i])
	}
	return m.done, m.waited, nil
}

func (s *socket) WriteBatch(pkts [][]byte, to []netip.AddrPort, errs []error) {
	m := s.get(pkts)
	defer s.pool.Put(m)
	for i := range pkts {
		m.hdrs[i].hdr.Namelen, errs[i] = putSockaddr(&m.names[i], to[i]), nil
	}
	m.errs = errs
	if err := s.rc.Write(m.write); err != nil {
		for i := m.done; i < m.n; i++ {
			errs[i] = err
		}
	}
}

// addrPort reads the source the kernel wrote into sa. Both families keep
// the port at the same offset, in network order: swapped on the
// little-endian hosts this file builds for.
func addrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	port := sa.Port>>8 | sa.Port<<8
	if sa.Family == syscall.AF_INET {
		return netip.AddrPortFrom(netip.AddrFrom4((*syscall.RawSockaddrInet4)(unsafe.Pointer(sa)).Addr), port)
	}
	return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), port)
}

// putSockaddr writes ap into sa and returns its length.
func putSockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	sa.Port = ap.Port()>>8 | ap.Port()<<8
	if a := ap.Addr().Unmap(); a.Is4() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family, sa4.Addr, sa4.Zero = syscall.AF_INET, a.As4(), [8]uint8{}
		return syscall.SizeofSockaddrInet4
	}
	sa.Family, sa.Flowinfo, sa.Addr, sa.Scope_id = syscall.AF_INET6, 0, ap.Addr().As16(), 0
	return syscall.SizeofSockaddrInet6
}
