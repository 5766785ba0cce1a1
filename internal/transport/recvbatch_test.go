package transport

import (
	"errors"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
)

// TestMemRecvBatchDrainsQueued checks the RecvBatch contract on the
// in-memory switch: it returns what is already queued, at most len(dst)
// of it, in arrival order, then ErrClosed once the endpoint is closed
// and drained.
func TestMemRecvBatchDrainsQueued(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	b, _ := sw.Attach(ident.New(2))
	for i := 0; i < 5; i++ {
		if err := a.Send(b.LocalID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var dst [8]Datagram
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
	if _, err := b.RecvBatch(dst[:]); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained and closed: err = %v, want ErrClosed", err)
	}
}

// TestUDPRecvBatch checks RecvBatch over real sockets: a burst arrives
// complete and in order across however many calls it takes, and Close
// unblocks a waiting call.
func TestUDPRecvBatch(t *testing.T) {
	a, b := newUDP(t), newUDP(t)
	const count = 40 // more than one recvmmsg vector
	for i := 0; i < count; i++ {
		if err := a.Send(b.LocalID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var dst [16]Datagram
	got := 0
	for got < count {
		n, err := b.RecvBatch(dst[:])
		if err != nil || n < 1 || n > len(dst) {
			t.Fatalf("RecvBatch = %d, %v after %d datagrams", n, err, got)
		}
		for _, dg := range dst[:n] {
			if dg.From != a.LocalID() || dg.Data[0] != byte(got) {
				t.Fatalf("datagram %d: from %s data %v", got, dg.From, dg.Data)
			}
			dg.Recycle()
			got++
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := b.RecvBatch(dst[:])
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock RecvBatch")
	}
}
