// Package transport defines the generic transport layer of §III-D: an
// abstraction presenting send() and recv() of raw byte arrays so that
// higher layers are decoupled from the actual network beneath
// (UDP in the prototype; Bluetooth/ZigBee later; an in-process
// simulated network for experiments).
package transport

import (
	"errors"
	"time"

	"github.com/amuse/smc/internal/ident"
)

// Datagram is one received byte array together with its source. The
// receiver owns Data; if the transport drew it from the shared buffer
// pool, the owner may hand it back with Recycle once done.
type Datagram struct {
	From ident.ID
	Data []byte

	// bufp is the pool handle when Data is a pooled buffer (see
	// bufpool.go); nil otherwise.
	bufp *[]byte
}

// Transport carries byte arrays between services. Implementations must
// be safe for concurrent use. Delivery is unordered and unreliable —
// exactly the datagram semantics the prototype's UDP transport gives
// (§IV) — reliability is layered above (package reliable).
type Transport interface {
	// LocalID returns the 48-bit service ID this endpoint answers to.
	LocalID() ident.ID
	// Send transmits data to the service identified by dst. The
	// broadcast ID reaches every attached endpoint. Send does not
	// block on the receiver; data is copied before Send returns.
	Send(dst ident.ID, data []byte) error
	// Recv blocks until a datagram arrives or the transport closes.
	Recv() (Datagram, error)
	// RecvBatch is Recv for a burst: it blocks like Recv for the first
	// datagram, then fills the rest of dst from datagrams already
	// queued, without waiting for more, and returns how many it
	// stored. A receiver that handles a whole burst before replying
	// (the reliable channel acknowledges once per sender per burst)
	// uses it to learn what arrived together. After Close it returns
	// ErrClosed; whether datagrams still queued are returned first is
	// the implementation's: the in-memory network (netsim) drains its
	// queue, UDP reads the socket on the caller's goroutine and loses
	// what is left in the socket buffer, as any datagram network may.
	// The caller owns every returned datagram, as with Recv.
	RecvBatch(dst []Datagram) (int, error)
	// RecvTimeout is Recv with a deadline; it returns ErrTimeout when
	// the deadline passes with nothing received.
	RecvTimeout(d time.Duration) (Datagram, error)
	// Close shuts the endpoint down; pending and future Recv calls
	// return ErrClosed.
	Close() error
}

// RecvBatchQueue implements Transport.RecvBatch (and, with a one-slot
// dst, Recv) for a transport whose receive side is a datagram channel
// and a closed signal: it blocks for the first datagram, then drains
// what is already queued into the rest of dst, and after close returns
// what is still queued before ErrClosed. The in-memory network
// (netsim) uses it.
func RecvBatchQueue(queue <-chan Datagram, closed <-chan struct{}, dst []Datagram) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	select {
	case dst[0] = <-queue:
	case <-closed:
		select {
		case dst[0] = <-queue:
		default:
			return 0, ErrClosed
		}
	}
	n := 1
	for n < len(dst) {
		select {
		case dst[n] = <-queue:
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// BatchSender is an optional Transport capability: transmitting a
// burst of datagrams to one destination as a single batched operation
// (sendmmsg on linux). Callers must keep every datagram within
// MaxDatagram; the reliability layer uses it to flush a whole window
// in one syscall.
type BatchSender interface {
	// SendBatch transmits bufs to dst in order. Like Send, data is
	// copied (or fully transmitted) before it returns, and delivery
	// errors beyond local setup failures are indistinguishable from
	// loss.
	SendBatch(dst ident.ID, bufs [][]byte) error
	// MaxDatagram reports the largest datagram SendBatch accepts;
	// 0 means unbounded.
	MaxDatagram() int
}

// DeliveryHook lets tests intercept datagrams on hook-capable
// transports (netsim.Network.SetDeliveryHook for the simulated network,
// UDPTransport.SetSendHook for real sockets): returning drop suppresses
// the datagram, a positive delay defers it — enough to script exact
// loss and reorder scenarios on otherwise well-behaved links. The hook
// must not retain data.
type DeliveryHook func(from, to ident.ID, data []byte) (drop bool, delay time.Duration)

var (
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout reports an expired RecvTimeout deadline.
	ErrTimeout = errors.New("transport: receive timeout")
	// ErrTooLarge reports a datagram above the transport MTU.
	ErrTooLarge = errors.New("transport: datagram exceeds MTU")
)
