package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/amuse/smc/internal/ident"
)

// UDPTransport is the prototype transport of §IV: datagram sockets,
// with the service ID derived from the unicast socket's address and
// port. The OS chooses the port (the prototype "is not hardwired to use
// a specific port for unicast traffic"); broadcast traffic goes to an
// arbitrarily chosen port number known by all services.
type UDPTransport struct {
	id   ident.ID
	conn *net.UDPConn
	// rc is the socket's raw handle, cached for the batched syscalls.
	rc syscall.RawConn

	// bcast lists destinations used for the broadcast ID. On a real
	// wireless segment this would be the subnet broadcast address;
	// for loopback testing it is the set of peer broadcast listeners.
	mu     sync.RWMutex
	bcast  []netip.AddrPort
	hook   DeliveryHook
	closed bool

	// Receives run on the caller's goroutine, straight from the
	// socket: the kernel socket buffer is the only receive queue. rmu
	// serialises receivers, so a RecvTimeout deadline never reaches
	// another receiver's read.
	rmu sync.Mutex
}

var _ Transport = (*UDPTransport)(nil)

// MaxUDPDatagram is the largest datagram the transport will send.
const MaxUDPDatagram = 60 * 1024

// recvBufferBytes is the kernel receive buffer each socket requests.
// The socket buffer is the only receive queue, so it holds a burst the
// receiving goroutine has not read yet: room for about 4096 datagrams
// of up to 1 KiB. The kernel clamps the request to net.core.rmem_max.
const recvBufferBytes = 4096 * 1024

// UDPOption configures a UDPTransport.
type UDPOption func(*udpConfig)

type udpConfig struct {
	listenIP net.IP
	port     int
}

// WithListenIP sets the local IP to bind (default 127.0.0.1).
func WithListenIP(ip net.IP) UDPOption {
	return func(c *udpConfig) { c.listenIP = ip }
}

// WithPort pins the local port (default 0: OS chooses, as in the
// prototype's unicast socket).
func WithPort(port int) UDPOption {
	return func(c *udpConfig) { c.port = port }
}

// WithAddr binds the transport to a "host:port" string, the shape the
// daemons take on their -addr flags. Port 0 lets the OS choose; the
// bound address is then available from LocalAddr. An empty host keeps
// the loopback default.
func WithAddr(addr string) (UDPOption, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad listen address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return nil, fmt.Errorf("bad listen port %q", portStr)
	}
	ip := net.IPv4(127, 0, 0, 1)
	if host != "" {
		if ip = net.ParseIP(host); ip == nil {
			return nil, fmt.Errorf("bad listen host %q", host)
		}
	}
	return func(c *udpConfig) { c.listenIP = ip; c.port = port }, nil
}

// NewUDPTransport opens a datagram socket and derives the service ID
// from its bound address and port.
func NewUDPTransport(opts ...UDPOption) (*UDPTransport, error) {
	cfg := udpConfig{listenIP: net.IPv4(127, 0, 0, 1)}
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: cfg.listenIP, Port: cfg.port})
	if err != nil {
		return nil, fmt.Errorf("udp listen: %w", err)
	}
	addr, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		conn.Close()
		return nil, errors.New("udp transport: unexpected local address type")
	}
	id, err := ident.FromUDPAddr(addr)
	if err != nil {
		conn.Close()
		return nil, err
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("udp listen: %w", err)
	}
	// Best effort: a smaller buffer only means earlier loss under a
	// burst, which a datagram network tolerates.
	_ = conn.SetReadBuffer(recvBufferBytes)
	return &UDPTransport{id: id, conn: conn, rc: rc}, nil
}

// SetSendHook installs (or, with nil, removes) a test hook applied to
// every unicast Send before it reaches the socket: loss and reorder
// injection on the real-socket path, mirroring netsim's delivery hook.
func (t *UDPTransport) SetSendHook(h DeliveryHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = h
}

// AddBroadcastPeer registers an address reached by broadcast sends.
func (t *UDPTransport) AddBroadcastPeer(addr *net.UDPAddr) {
	ap := addr.AddrPort()
	// The socket is IPv4: net.IPv4 addresses arrive 4-in-6 mapped.
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bcast = append(t.bcast, ap)
}

// LocalAddr exposes the bound UDP address.
func (t *UDPTransport) LocalAddr() *net.UDPAddr {
	addr, _ := t.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

// LocalID implements Transport.
func (t *UDPTransport) LocalID() ident.ID { return t.id }

// Send implements Transport. Unicast destinations are addressed by
// decoding the 48-bit ID back to IP:port — the inverse of the ID
// derivation, exactly how the prototype routes packets.
func (t *UDPTransport) Send(dst ident.ID, data []byte) error {
	if len(data) > MaxUDPDatagram {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), MaxUDPDatagram)
	}
	t.mu.RLock()
	closed := t.closed
	bcast := t.bcast
	hook := t.hook
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if hook != nil && !dst.IsBroadcast() {
		drop, delay := hook(t.id, dst, data)
		if drop {
			return nil
		}
		if delay > 0 {
			cp := make([]byte, len(data))
			copy(cp, data)
			time.AfterFunc(delay, func() {
				// Best effort: a closed socket just drops the
				// datagram, as a real network would.
				_, _ = t.conn.WriteToUDPAddrPort(cp, dst.AddrPort())
			})
			return nil
		}
	}
	if dst.IsBroadcast() {
		var firstErr error
		for _, ap := range bcast {
			if _, err := t.conn.WriteToUDPAddrPort(data, ap); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	// A netip.AddrPort built from the ID keeps the send allocation-free.
	_, err := t.conn.WriteToUDPAddrPort(data, dst.AddrPort())
	if err != nil {
		return fmt.Errorf("udp send to %s: %w", dst, err)
	}
	return nil
}

// SendBatch implements BatchSender: a burst of datagrams to one
// destination moves through sendmmsg in chunks of pooled message
// vectors, one syscall per chunk. Hooked, broadcast, single-datagram
// and non-linux sends degrade to sequential Send calls.
func (t *UDPTransport) SendBatch(dst ident.ID, bufs [][]byte) error {
	for _, b := range bufs {
		if len(b) > MaxUDPDatagram {
			return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(b), MaxUDPDatagram)
		}
	}
	t.mu.RLock()
	closed, hook := t.closed, t.hook
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !batchSyscallsAvailable || hook != nil || dst.IsBroadcast() || len(bufs) < 2 {
		for _, b := range bufs {
			if err := t.Send(dst, b); err != nil {
				return err
			}
		}
		return nil
	}
	return t.sendBatched(dst, bufs)
}

// MaxDatagram implements BatchSender.
func (t *UDPTransport) MaxDatagram() int { return MaxUDPDatagram }

var _ BatchSender = (*UDPTransport)(nil)

// Recv implements Transport.
func (t *UDPTransport) Recv() (Datagram, error) {
	var dg [1]Datagram
	_, err := t.RecvBatch(dg[:])
	return dg[0], err
}

// RecvBatch implements Transport. It reads the socket on the calling
// goroutine, parking in the runtime poller until a datagram arrives,
// and returns up to len(dst) datagrams the kernel already holds (one
// recvmmsg where the platform has it). Concurrent callers take turns.
// After Close it returns ErrClosed: datagrams still in the socket
// buffer are lost, as on any datagram network.
func (t *UDPTransport) RecvBatch(dst []Datagram) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return t.recv(dst)
}

// RecvTimeout implements Transport with a socket read deadline. The
// deadline covers the read itself, not a wait for a concurrent
// receiver to finish its turn.
func (t *UDPTransport) RecvTimeout(d time.Duration) (Datagram, error) {
	var dg [1]Datagram
	t.rmu.Lock()
	defer t.rmu.Unlock()
	if err := t.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		return Datagram{}, ErrClosed
	}
	_, err := t.recv(dg[:])
	// Clear the deadline so the next receiver blocks as usual; this
	// fails only on a closed socket, whose reads fail anyway.
	_ = t.conn.SetReadDeadline(time.Time{})
	return dg[0], err
}

// readErr maps a failed socket read onto the Transport errors: an
// expired deadline is ErrTimeout, anything else (the socket was closed)
// ErrClosed.
func readErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return ErrTimeout
	}
	return ErrClosed
}

// Close implements Transport. Closing the socket wakes every parked
// receiver with ErrClosed.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	return t.conn.Close()
}
