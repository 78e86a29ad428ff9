//go:build linux && (amd64 || arm64)

package tunnel

import (
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Socket returns the driver that serves c. It takes c over: it keeps a
// blocking duplicate of c's fd, outside the Go netpoller, and closes c,
// so that no datagram wakes a thread waiting in epoll for other work.
// ReadBatch is one recvmmsg with MSG_WAITFORONE: a worker waits for the
// first datagram in the kernel, holding one OS thread, and takes what is
// queued behind it, so no scheduler round trip stands between the
// datagram and the worker (TestSocketReadWaitsInKernel). WriteBatch is
// one sendmmsg (more only to step past a failed datagram). Every call
// runs inside the fd's RawConn, whose reference keeps a closed fd number
// from being reused under a blocked reader. Close shuts the socket down
// first, which wakes a blocked reader or writer: both then report
// net.ErrClosed. A source reads as ReadFromUDPAddrPort reports it,
// IPv4-mapped on an IPv6 socket, with an IPv6 scope id as its decimal
// zone, and an IPv4 destination in either form is written as a
// sockaddr_in, which a dual-stack socket accepts (TestSocketDualStack).
func Socket(c *net.UDPConn) (Conn, error) {
	defer c.Close() // takes c's fd out of the netpoller's epoll set
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	var fd uintptr
	var e syscall.Errno
	if err := rc.Control(func(s uintptr) { fd, _, e = syscall.Syscall(syscall.SYS_FCNTL, s, syscall.F_DUPFD_CLOEXEC, 0) }); err != nil {
		return nil, err
	}
	if e != 0 {
		return nil, os.NewSyscallError("fcntl", e)
	}
	if err := syscall.SetNonblock(int(fd), false); err != nil { // the flag is the socket's, shared with c
		syscall.Close(int(fd))
		return nil, os.NewSyscallError("fcntl", err)
	}
	f := os.NewFile(fd, "udp") // blocking, so not added to the netpoller
	rc, _ = f.SyscallConn()    // fails only on a nil File
	return &socket{file: f, rc: rc}, nil
}

type socket struct {
	file   *os.File
	rc     syscall.RawConn
	closed atomic.Bool // set before the shutdown, so its 0-byte wake-up is not a datagram
	pool   sync.Pool   // of *mmsgs: one per call in flight
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
	m.n, m.done, m.errno = len(bufs), 0, 0
	return m
}

// recv waits in the kernel for the first datagram and takes what is
// queued behind it. It never parks.
func (m *mmsgs) recv(fd uintptr) bool {
	for {
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(m.n), syscall.MSG_WAITFORONE, 0, 0)
		if e != syscall.EINTR {
			m.done, m.errno = int(r), e // after a failure, done is not read
			return true
		}
	}
}

// send resumes after the datagram sendmmsg stopped at, which it reports
// failed only when that opens a call: a failure costs only itself. It
// stops short on EPIPE, which only Close's shutdown causes.
func (m *mmsgs) send(fd uintptr) bool {
	for i := m.done; i < m.n; i = m.done {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&m.hdrs[i])), uintptr(m.n-i), 0, 0, 0)
		switch e {
		case 0:
			m.done += int(r)
		case syscall.EINTR:
		case syscall.EPIPE:
			return true
		default:
			m.errs[i], m.done = os.NewSyscallError("sendmmsg", e), i+1
		}
	}
	return true
}

func (s *socket) ReadBatch(bufs [][]byte, n []int, from []netip.AddrPort) (int, error) {
	m := s.get(bufs)
	defer s.pool.Put(m)
	err := s.rc.Read(m.read)
	if s.closed.Load() {
		return 0, net.ErrClosed // whatever the read returned, the shutdown's wake-up among it
	}
	if err != nil {
		return 0, err
	}
	if m.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", m.errno)
	}
	for i := 0; i < m.done; i++ {
		n[i], from[i] = int(m.hdrs[i].len), addrPort(&m.names[i])
	}
	return m.done, nil
}

func (s *socket) WriteBatch(pkts [][]byte, to []netip.AddrPort, errs []error) {
	m := s.get(pkts)
	defer s.pool.Put(m)
	for i := range pkts {
		m.hdrs[i].hdr.Namelen, errs[i] = putSockaddr(&m.names[i], to[i]), nil
	}
	m.errs = errs
	err := s.rc.Write(m.write)
	if err == nil || s.closed.Load() {
		err = net.ErrClosed // send stopped short on EPIPE, or found the fd closed: Close was called
	}
	for i := m.done; i < m.n; i++ {
		errs[i] = err
	}
}

// Close shuts the socket down, waking a reader or writer blocked in the
// kernel, and closes the fd once no call holds it.
func (s *socket) Close() error {
	s.shutdown()
	return s.file.Close()
}

func (s *socket) shutdown() {
	s.closed.Store(true)
	s.rc.Control(func(fd uintptr) { syscall.Shutdown(int(fd), syscall.SHUT_RDWR) }) // ENOTCONN on UDP, but it still wakes
}

// addrPort reads the source the kernel wrote into sa. Both families keep
// the port at the same offset, in network order: swapped on the
// little-endian hosts this file builds for. An IPv6 scope id becomes the
// decimal zone, allocation-free below 100.
func addrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	port := sa.Port>>8 | sa.Port<<8
	if sa.Family == syscall.AF_INET {
		return netip.AddrPortFrom(netip.AddrFrom4((*syscall.RawSockaddrInet4)(unsafe.Pointer(sa)).Addr), port)
	}
	a := netip.AddrFrom16(sa.Addr)
	if sa.Scope_id != 0 {
		a = a.WithZone(strconv.FormatUint(uint64(sa.Scope_id), 10))
	}
	return netip.AddrPortFrom(a, port)
}

// putSockaddr writes ap into sa and returns its length. A zone that is
// not an interface index in decimal, as addrPort writes it, is dropped.
func putSockaddr(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	sa.Port = ap.Port()>>8 | ap.Port()<<8
	if a := ap.Addr().Unmap(); a.Is4() {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family, sa4.Addr, sa4.Zero = syscall.AF_INET, a.As4(), [8]uint8{}
		return syscall.SizeofSockaddrInet4
	}
	var scope uint64
	if z := ap.Addr().Zone(); z != "" {
		scope, _ = strconv.ParseUint(z, 10, 32)
	}
	sa.Family, sa.Flowinfo, sa.Addr, sa.Scope_id = syscall.AF_INET6, 0, ap.Addr().As16(), uint32(scope)
	return syscall.SizeofSockaddrInet6
}
