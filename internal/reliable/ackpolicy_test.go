package reliable

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/wire"
)

// TestFullQueueLeavesPacketUnacked pins at-least-once across inbound
// overflow: a packet that finds the delivery queue full must not be
// acknowledged, so the sender's retransmission brings it back once the
// consumer catches up. Acknowledging before the drop loses it for good
// while its Completion reports success.
func TestFullQueueLeavesPacketUnacked(t *testing.T) {
	cfg := fastCfg()
	cfg.QueueDepth = 4
	a, b := pair(t, netsim.Perfect, 41, cfg)

	const count = 200
	comps := make([]*Completion, count)
	for k := range comps {
		comps[k] = a.SendAsync(b.LocalID(), wire.PktEvent, []byte{byte(k)})
	}

	time.Sleep(150 * time.Millisecond) // the consumer starts late
	for k := 0; k < count; k++ {
		pkt, err := b.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("after %d deliveries: %v (receiver %+v)", k, err, b.Stats())
		}
		if got := pkt.Payload[0]; got != byte(k) {
			t.Fatalf("delivery %d carries %d: lost or reordered", k, got)
		}
		pkt.Release()
	}
	for k, comp := range comps {
		if err := comp.Wait(); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
		comp.Recycle()
	}
	if pkt, err := b.RecvTimeout(100 * time.Millisecond); err == nil {
		t.Fatalf("extra delivery after the stream: % x", pkt.Payload)
	}
	if st := b.Stats(); st.Received != count {
		t.Errorf("received = %d, want %d", st.Received, count)
	}
}

// TestInOrderBurstCoalescesAcks pins receive-burst ack coalescing: a
// window's worth of in-order packets read in one burst draws fewer ack
// datagrams than packets. The receiver's channel starts only after the
// whole window is queued at its endpoint, so the burst is the window.
func TestInOrderBurstCoalescesAcks(t *testing.T) {
	n := netsim.New(netsim.Perfect, netsim.WithSeed(42))
	defer n.Close()
	ta, _ := n.Attach(ident.New(1))
	tb, _ := n.Attach(ident.New(2))
	cfg := fastCfg()
	cfg.Window = 16
	a := New(ta, cfg)
	defer a.Close()

	comps := make([]*Completion, cfg.Window)
	for k := range comps {
		comps[k] = a.SendAsync(tb.LocalID(), wire.PktEvent, []byte{byte(k)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().Delivered < uint64(cfg.Window) {
		if time.Now().After(deadline) {
			t.Fatalf("window not queued at the receiver: %+v", n.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	b := New(tb, cfg)
	defer b.Close()
	for k, comp := range comps {
		if err := comp.Wait(); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
	}
	st := b.Stats()
	if st.Received != uint64(cfg.Window) {
		t.Fatalf("received = %d, want %d", st.Received, cfg.Window)
	}
	if st.AcksSent >= st.Received {
		t.Errorf("acks sent = %d for %d in-order packets: want fewer (one per burst)",
			st.AcksSent, st.Received)
	}
}

// TestReorderedArrivalAcksAtOnce pins the acks that stay immediate: a
// packet arriving ahead of a gap draws a duplicate cumulative ack right
// away — the fast-retransmit signal — not at some later point.
func TestReorderedArrivalAcksAtOnce(t *testing.T) {
	nw := netsim.New(netsim.Perfect)
	defer nw.Close()
	ta, _ := nw.Attach(ident.New(1))
	tb, _ := nw.Attach(ident.New(2))

	// Hold back the first data packet; record every ack the receiver
	// sends back.
	var held atomic.Bool
	var mu sync.Mutex
	var acks []uint64
	nw.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		pkt, err := wire.Unmarshal(data)
		if err != nil {
			return false, 0
		}
		switch {
		case pkt.Type == wire.PktAck:
			mu.Lock()
			acks = append(acks, pkt.Seq)
			mu.Unlock()
		case pkt.Seq == 1 && held.CompareAndSwap(false, true):
			return false, 300 * time.Millisecond
		}
		return false, 0
	})

	cfg := fastCfg()
	cfg.RetryTimeout = time.Second // no timer retransmission in the window
	a, b := New(ta, cfg), New(tb, cfg)
	defer a.Close()
	defer b.Close()

	first := a.SendAsync(tb.LocalID(), wire.PktEvent, []byte{1})
	second := a.SendAsync(tb.LocalID(), wire.PktEvent, []byte{2})

	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		mu.Lock()
		got := append([]uint64(nil), acks...)
		mu.Unlock()
		if len(got) > 0 {
			if got[0] != 0 {
				t.Fatalf("first ack covers %d, want the duplicate ack 0", got[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no immediate ack for the parked packet (receiver %+v)", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := b.Stats(); st.Received != 0 || st.Buffered != 1 {
		t.Fatalf("received=%d buffered=%d, want the gap still open", st.Received, st.Buffered)
	}

	for _, c := range []*Completion{first, second} {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for want := byte(1); want <= 2; want++ {
		pkt, err := b.RecvTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Payload[0] != want {
			t.Fatalf("delivered %d, want %d", pkt.Payload[0], want)
		}
		pkt.Release()
	}
}
