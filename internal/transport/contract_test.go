package transport_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/transport"
)

// These tests pin the Transport contract on the in-memory network
// (netsim on a perfect link); the UDP tests pin it on real sockets.

func perfectPair(t *testing.T) (*netsim.Network, *netsim.Endpoint, *netsim.Endpoint) {
	t.Helper()
	n := netsim.New(netsim.Perfect)
	t.Cleanup(func() { n.Close() })
	a, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

// TestMemRecvBatchDrainsQueued checks the RecvBatch contract on the
// in-memory network: it returns what is already queued, at most
// len(dst) of it, in arrival order, then ErrClosed once the endpoint
// is closed and drained.
func TestMemRecvBatchDrainsQueued(t *testing.T) {
	_, a, b := perfectPair(t)
	for i := 0; i < 5; i++ {
		if err := a.Send(b.LocalID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var dst [8]transport.Datagram
	if n, err := b.RecvBatch(dst[:3]); n != 3 || err != nil {
		t.Fatalf("RecvBatch(3) = %d, %v; want 3 queued datagrams", n, err)
	}
	if n, err := b.RecvBatch(dst[3:]); n != 2 || err != nil {
		t.Fatalf("RecvBatch(5) = %d, %v; want the 2 left, without waiting", n, err)
	}
	for i, dg := range dst[:5] {
		if dg.From != a.LocalID() || dg.Data[0] != byte(i) {
			t.Fatalf("datagram %d: from %s data %v", i, dg.From, dg.Data)
		}
		dg.Recycle()
	}
	if n, err := b.RecvBatch(nil); n != 0 || err != nil {
		t.Fatalf("RecvBatch(nil) = %d, %v", n, err)
	}
	_ = a.Send(b.LocalID(), []byte{9})
	b.Close()
	if n, err := b.RecvBatch(dst[:]); n != 1 || err != nil {
		t.Fatalf("after close: RecvBatch = %d, %v; want the queued datagram first", n, err)
	}
	if _, err := b.RecvBatch(dst[:]); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("drained and closed: err = %v, want ErrClosed", err)
	}
}

func TestSendCopiesData(t *testing.T) {
	_, a, b := perfectPair(t)
	buf := []byte("mutable")
	if err := a.Send(b.LocalID(), buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	dg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Data) != "mutable" {
		t.Error("datagram aliases sender buffer")
	}
}

func TestRecvTimeout(t *testing.T) {
	_, a, _ := perfectPair(t)
	start := time.Now()
	_, err := a.RecvTimeout(50 * time.Millisecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("returned too early")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	_, a, _ := perfectPair(t)
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	n, a, b := perfectPair(t)
	a.Close()
	if err := a.Send(b.LocalID(), []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("err = %v", err)
	}
	// The detached endpoint is unreachable: a datagram to it is lost,
	// like UDP to a dead host.
	if err := b.Send(a.LocalID(), []byte("x")); err != nil {
		t.Errorf("send to closed = %v", err)
	}
	if st := n.Stats(); st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("stats after send to closed = %+v", st)
	}
}

func TestConcurrentSendersReceiveAll(t *testing.T) {
	n := netsim.New(netsim.Perfect)
	defer n.Close()
	dst, _ := n.Attach(ident.New(100))
	const senders, per = 8, 50

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Attach(ident.New(uint64(s + 1)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep *netsim.Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(dst.LocalID(), []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		if _, err := dst.RecvTimeout(time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
}
