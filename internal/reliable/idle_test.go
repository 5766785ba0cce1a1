package reliable

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// countingTransport counts the data packets (everything but acks) its
// wrapped endpoint transmits, through Send or SendBatch.
type countingTransport struct {
	*netsim.Endpoint
	data atomic.Int64
}

func (t *countingTransport) count(b []byte) {
	if p, err := wire.Unmarshal(b); err == nil && p.Type != wire.PktAck {
		t.data.Add(1)
	}
}

func (t *countingTransport) Send(dst ident.ID, b []byte) error {
	t.count(b)
	return t.Endpoint.Send(dst, b)
}

func (t *countingTransport) SendBatch(dst ident.ID, bufs [][]byte) error {
	for _, b := range bufs {
		t.count(b)
	}
	return t.Endpoint.SendBatch(dst, bufs)
}

var _ transport.BatchSender = (*countingTransport)(nil)

// TestIdleWindowSendTransmitsBeforeReturn pins the idle-window path: a
// send to a destination with nothing in flight reaches the transport
// on the caller's goroutine, before SendAsync returns.
func TestIdleWindowSendTransmitsBeforeReturn(t *testing.T) {
	nw := netsim.New(netsim.Perfect)
	defer nw.Close()
	ep, err := nw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	peerTr, err := nw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTransport{Endpoint: ep}
	a := New(tr, Config{RetryTimeout: time.Second})
	defer a.Close()
	b := New(peerTr, Config{})
	defer b.Close()

	for i := int64(1); i <= 20; i++ {
		comp := a.SendAsync(peerTr.LocalID(), wire.PktEvent, []byte{byte(i)})
		if got := tr.data.Load(); got != i {
			t.Fatalf("send %d: %d data packets on the transport when SendAsync returned, want %d", i, got, i)
		}
		// The ack empties the window again before the next send.
		if err := comp.Wait(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		comp.Recycle()
		pkt, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pkt.Release()
	}
	if st := a.Stats(); st.Retransmits != 0 {
		t.Errorf("%d retransmits on a perfect link", st.Retransmits)
	}
}

// TestTimerUnarmedRetransmitsDroppedFirstPacket drops the first
// transmission of a packet sent into an idle window while the sender's
// retransmit timer is unarmed — on a fresh destination, and again after
// the timer has fired on an empty window and disarmed itself. Both
// packets must be retransmitted after RetryTimeout: the caller that
// transmitted them had to wake the sender to arm its timer.
func TestTimerUnarmedRetransmitsDroppedFirstPacket(t *testing.T) {
	nw := netsim.New(netsim.Perfect)
	defer nw.Close()
	aTr, err := nw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	bTr, err := nw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const rto = 20 * time.Millisecond
	a := New(aTr, Config{RetryTimeout: rto, MaxRetries: 3})
	defer a.Close()
	b := New(bTr, Config{})
	defer b.Close()

	var dropSeq atomic.Uint64 // drop the first transmission of this seq
	nw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		p, err := wire.Unmarshal(data)
		if err != nil || p.Type != wire.PktEvent || p.Flags&wire.FlagRetransmit != 0 {
			return false, 0
		}
		return p.Seq == dropSeq.Load(), 0
	})

	sendDropped := func(seq uint64) {
		t.Helper()
		dropSeq.Store(seq)
		before := a.Stats().Retransmits
		start := time.Now()
		comp := a.SendAsync(bTr.LocalID(), wire.PktEvent, []byte{byte(seq)})
		select {
		case <-comp.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("seq %d: dropped packet never retransmitted", seq)
		}
		if err := comp.Err(); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if elapsed := time.Since(start); elapsed < rto {
			t.Errorf("seq %d acknowledged after %v, before the %v retransmit timeout", seq, elapsed, rto)
		}
		if got := a.Stats().Retransmits - before; got != 1 {
			t.Errorf("seq %d: %d retransmits, want 1", seq, got)
		}
		pkt, err := b.RecvTimeout(2 * time.Second)
		if err != nil || pkt.Payload[0] != byte(seq) {
			t.Fatalf("seq %d: recv %v, %v", seq, pkt, err)
		}
		pkt.Release()
	}

	sendDropped(1) // fresh destination: the sender has never armed
	// The ack emptied the window; its armed timer fires once and
	// disarms itself.
	time.Sleep(5 * rto)
	sendDropped(2)
}
