//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"sync"
	"syscall"
	"unsafe"

	"github.com/amuse/smc/internal/ident"
)

// Batched UDP syscalls: recvmmsg behind RecvBatch and sendmmsg behind
// SendBatch move up to mmsgBatch datagrams per kernel crossing, so a
// burst (the reliable layer filling a window, a proxy flushing a
// coalesced batch) pays one syscall instead of one per datagram. The
// golang.org/x/net ipv4 ReadBatch/WriteBatch wrappers provide the same
// thing, but this module is dependency-free, so the two syscalls are
// issued directly, through the socket's cached syscall.RawConn, on the
// calling goroutine; both exist on every supported linux kernel
// (2.6.33 / 3.0). Message vectors — headers, iovecs, sockaddrs,
// receive buffers and the RawConn callbacks — are pooled, so the
// steady state adds no per-datagram allocation. Other platforms fall
// back to the portable one-datagram-per-syscall path
// (mmsg_fallback.go).

const mmsgBatch = 32

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message byte count filled in (recvmmsg) or consumed (sendmmsg).
// syscall.Msghdr ends 8-byte aligned on both supported arches, so the
// explicit pad reproduces the C layout exactly.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   uint32
}

// msgVec is one reusable message vector: parallel slices wired
// together so hdrs[i] points at names[i] and iovs[i], and iovs[i] at
// bufs[i] (receive) or a caller buffer (send).
type msgVec struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	bufs  [][]byte

	// One syscall's message range hdrs[lo:hi] and its result, with the
	// RawConn callbacks that issue it bound once, so a call builds no
	// closure.
	lo, hi int
	n      int
	errno  syscall.Errno
	recvFn func(fd uintptr) bool
	sendFn func(fd uintptr) bool
}

// recv and send issue one non-blocking recvmmsg/sendmmsg over
// hdrs[lo:hi]. Returning false on EAGAIN parks the goroutine in the
// runtime poller until the socket is ready again — the batched
// equivalent of a blocking ReadFromUDP/WriteToUDP.
func (v *msgVec) recv(fd uintptr) bool {
	v.n, v.errno = recvmmsg(fd, v.hdrs[v.lo:v.hi], syscall.MSG_DONTWAIT)
	return v.errno != syscall.EAGAIN
}

func (v *msgVec) send(fd uintptr) bool {
	v.n, v.errno = sendmmsg(fd, v.hdrs[v.lo:v.hi], syscall.MSG_DONTWAIT)
	return v.errno != syscall.EAGAIN
}

// newMsgVec wires a vector of n messages; withBufs allocates owned
// receive buffers, the send side points iovecs at caller data instead.
func newMsgVec(n int, withBufs bool) *msgVec {
	v := &msgVec{
		hdrs:  make([]mmsghdr, n),
		iovs:  make([]syscall.Iovec, n),
		names: make([]syscall.RawSockaddrInet4, n),
	}
	if withBufs {
		v.bufs = make([][]byte, n)
	}
	for i := range v.hdrs {
		if withBufs {
			v.bufs[i] = make([]byte, MaxUDPDatagram+1)
			v.iovs[i].Base = &v.bufs[i][0]
			v.iovs[i].Len = uint64(len(v.bufs[i]))
		}
		v.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&v.names[i]))
		v.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(v.names[i]))
		v.hdrs[i].hdr.Iov = &v.iovs[i]
		v.hdrs[i].hdr.Iovlen = 1
	}
	v.recvFn, v.sendFn = v.recv, v.send
	return v
}

// sendVecPool recycles send-side message vectors across SendBatch
// callers (one reliable sender goroutine per destination).
var sendVecPool = sync.Pool{New: func() interface{} { return newMsgVec(mmsgBatch, false) }}

// recvVecPool recycles receive vectors (about 2 MB each: every slot
// holds a full-size datagram). A receive holds one only for the call,
// so a closed transport's vector serves the next transport instead of
// becoming garbage.
var recvVecPool = sync.Pool{New: func() interface{} { return newMsgVec(mmsgBatch, true) }}

func recvmmsg(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(flags), 0, 0)
	return int(n), errno
}

func sendmmsg(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(flags), 0, 0)
	return int(n), errno
}

// sockaddrID converts a kernel-filled IPv4 sockaddr to a service ID
// without building a net.UDPAddr. Port bytes are network order.
func sockaddrID(sa *syscall.RawSockaddrInet4) (ident.ID, bool) {
	if sa.Family != syscall.AF_INET {
		return ident.Nil, false
	}
	pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
	v := uint64(sa.Addr[0])<<40 | uint64(sa.Addr[1])<<32 |
		uint64(sa.Addr[2])<<24 | uint64(sa.Addr[3])<<16 |
		uint64(pb[0])<<8 | uint64(pb[1])
	return ident.New(v), true
}

// idSockaddr is the inverse: a service ID as a kernel sockaddr.
func idSockaddr(id ident.ID, sa *syscall.RawSockaddrInet4) {
	v := uint64(id)
	sa.Family = syscall.AF_INET
	sa.Addr = [4]byte{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16)}
	pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
	pb[0], pb[1] = byte(v>>8), byte(v)
}

// recv reads up to len(dst) datagrams with one recvmmsg, parking in
// the runtime poller until at least one is there. Caller holds t.rmu.
func (t *UDPTransport) recv(dst []Datagram) (int, error) {
	v := recvVecPool.Get().(*msgVec)
	defer recvVecPool.Put(v)
	v.lo, v.hi = 0, min(len(dst), mmsgBatch)
	for {
		if err := t.rc.Read(v.recvFn); err != nil {
			return 0, readErr(err)
		}
		if v.errno == syscall.EINTR {
			continue
		}
		if v.errno != 0 {
			return 0, fmt.Errorf("udp recv: %w", v.errno)
		}
		got := 0
		for i := 0; i < v.n; i++ {
			id, ok := sockaddrID(&v.names[i])
			// Namelen is rewritten by the kernel per message; reset it
			// for the next call regardless of what this one was.
			v.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(v.names[i]))
			if ok {
				dst[got] = pooledDatagram(id, v.bufs[i][:v.hdrs[i].n])
				got++
			}
		}
		if got > 0 {
			return got, nil
		}
	}
}

// sendBatched transmits bufs to one destination with sendmmsg,
// chunking by the pooled vector size. Partial sends retry the
// remainder; on a datagram network any residual error is
// indistinguishable from loss, so only setup errors are returned.
func (t *UDPTransport) sendBatched(dst ident.ID, bufs [][]byte) error {
	vec := sendVecPool.Get().(*msgVec)
	defer func() {
		for i := range vec.iovs {
			vec.iovs[i].Base = nil // do not pin caller buffers in the pool
		}
		sendVecPool.Put(vec)
	}()
	for len(bufs) > 0 {
		n := min(len(bufs), mmsgBatch)
		for i := 0; i < n; i++ {
			idSockaddr(dst, &vec.names[i])
			vec.iovs[i].Base = &bufs[i][0]
			vec.iovs[i].Len = uint64(len(bufs[i]))
			vec.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(vec.names[i]))
			vec.hdrs[i].n = 0
		}
		for vec.lo, vec.hi = 0, n; vec.lo < n; {
			if err := t.rc.Write(vec.sendFn); err != nil {
				return err
			}
			if vec.errno == syscall.EINTR {
				continue
			}
			if vec.errno != 0 {
				// Per-datagram delivery errors (ECONNREFUSED from a
				// dead peer, ENOBUFS under pressure) are loss on a
				// datagram network; drop the batch like Send drops.
				return nil
			}
			vec.lo += vec.n
		}
		bufs = bufs[n:]
	}
	return nil
}

// batchSyscallsAvailable reports whether this platform build carries
// the recvmmsg/sendmmsg fast path.
const batchSyscallsAvailable = true
