package transport

import (
	"errors"
	"testing"
	"time"
)

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
