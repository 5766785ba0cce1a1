package transport

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
)

func newUDP(t *testing.T) *UDPTransport {
	t.Helper()
	tr, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable in this environment: %v", err)
	}
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return tr
}

func TestUDPIDDerivedFromSocket(t *testing.T) {
	tr := newUDP(t)
	addr := tr.LocalAddr()
	want, err := ident.FromUDPAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LocalID() != want {
		t.Errorf("ID = %s, want %s (from %v)", tr.LocalID(), want, addr)
	}
	ip, port := tr.LocalID().Addr()
	if port != addr.Port || !ip.Equal(addr.IP.To4().To16()) && !ip.To4().Equal(addr.IP.To4()) {
		t.Errorf("Addr() = %v:%d, socket %v", ip, port, addr)
	}
}

func TestUDPUnicastRoundTrip(t *testing.T) {
	a := newUDP(t)
	b := newUDP(t)
	if err := a.Send(b.LocalID(), []byte("over udp")); err != nil {
		t.Fatalf("send: %v", err)
	}
	dg, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if dg.From != a.LocalID() || string(dg.Data) != "over udp" {
		t.Errorf("got %s %q", dg.From, dg.Data)
	}
	// And the reverse direction.
	if err := b.Send(a.LocalID(), []byte("reply")); err != nil {
		t.Fatal(err)
	}
	dg, err = a.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("recv reply: %v", err)
	}
	if string(dg.Data) != "reply" {
		t.Errorf("reply = %q", dg.Data)
	}
}

func TestUDPBroadcastPeers(t *testing.T) {
	a := newUDP(t)
	b := newUDP(t)
	c := newUDP(t)
	a.AddBroadcastPeer(b.LocalAddr())
	a.AddBroadcastPeer(c.LocalAddr())
	if err := a.Send(ident.Broadcast, []byte("beacon")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for _, ep := range []*UDPTransport{b, c} {
		dg, err := ep.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if string(dg.Data) != "beacon" {
			t.Errorf("payload = %q", dg.Data)
		}
	}
}

func TestUDPOversizedDatagramRejected(t *testing.T) {
	a := newUDP(t)
	err := a.Send(ident.New(1), make([]byte, MaxUDPDatagram+1))
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestUDPCloseUnblocksRecv(t *testing.T) {
	a, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("recv err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
	// Send after close fails; double close is fine.
	if err := a.Send(ident.New(1), []byte("x")); err == nil {
		t.Error("send after close succeeded")
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestUDPPinnedPort(t *testing.T) {
	tr, err := NewUDPTransport(WithPort(0)) // OS-chosen, as the prototype
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer tr.Close()
	if tr.LocalAddr().Port == 0 {
		t.Error("no port bound")
	}
}

func TestUDPSendHookDropAndDelay(t *testing.T) {
	a, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer a.Close()
	b, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer b.Close()

	var calls int
	a.SetSendHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		calls++
		switch calls {
		case 1:
			return true, 0
		case 2:
			return false, 30 * time.Millisecond
		default:
			return false, 0
		}
	})
	for i := byte(1); i <= 3; i++ {
		if err := a.Send(b.LocalID(), []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	dg, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Data[0] != 3 {
		t.Errorf("first arrival = %d, want 3 (datagram 1 dropped, 2 delayed)", dg.Data[0])
	}
	dg, err = b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Data[0] != 2 {
		t.Errorf("second arrival = %d, want 2", dg.Data[0])
	}
	if _, err := b.RecvTimeout(50 * time.Millisecond); err == nil {
		t.Error("dropped datagram surfaced")
	}
}

// TestUDPCloseUnblocksParkedReceivers checks that Close wakes a
// RecvBatch and a RecvTimeout parked in the socket read with ErrClosed.
func TestUDPCloseUnblocksParkedReceivers(t *testing.T) {
	a, b := newUDP(t), newUDP(t)
	errc := make(chan error, 2)
	go func() {
		var dst [4]Datagram
		_, err := a.RecvBatch(dst[:])
		errc <- err
	}()
	go func() {
		_, err := b.RecvTimeout(time.Minute)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	b.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("parked receive returned %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not unblock a parked receive")
		}
	}
}

// TestUDPRecvTimeoutClearsDeadline checks that an expired RecvTimeout
// reports ErrTimeout and leaves no deadline behind: the next plain Recv
// still blocks for, and receives, a datagram.
func TestUDPRecvTimeoutClearsDeadline(t *testing.T) {
	a, b := newUDP(t), newUDP(t)
	if _, err := b.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("RecvTimeout on an idle socket = %v, want ErrTimeout", err)
	}
	if err := a.Send(b.LocalID(), []byte("after timeout")); err != nil {
		t.Fatal(err)
	}
	dg, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv after an expired RecvTimeout: %v (deadline not cleared)", err)
	}
	if string(dg.Data) != "after timeout" {
		t.Errorf("Recv = %q", dg.Data)
	}
}

// TestUDPConcurrentRecvBatchExactlyOnce runs several RecvBatch callers
// on one socket: every datagram reaches exactly one of them.
func TestUDPConcurrentRecvBatchExactlyOnce(t *testing.T) {
	a, b := newUDP(t), newUDP(t)
	const receivers, count = 4, 400
	got := make(chan uint16, count)
	var wg sync.WaitGroup
	for r := 0; r < receivers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst [8]Datagram
			for {
				n, err := b.RecvBatch(dst[:])
				if err != nil {
					return
				}
				for i := range dst[:n] {
					got <- binary.BigEndian.Uint16(dst[i].Data)
					dst[i].Recycle()
				}
			}
		}()
	}
	var buf [2]byte
	for i := 0; i < count; i++ {
		binary.BigEndian.PutUint16(buf[:], uint16(i))
		if err := a.Send(b.LocalID(), buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	seen := make([]bool, count)
	for i := 0; i < count; i++ {
		select {
		case v := <-got:
			if int(v) >= count || seen[v] {
				t.Fatalf("datagram %d received twice or unknown", v)
			}
			seen[v] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d/%d datagrams", i, count)
		}
	}
	b.Close()
	wg.Wait()
	if len(got) != 0 {
		t.Fatalf("%d extra datagrams after all %d arrived", len(got), count)
	}
}
