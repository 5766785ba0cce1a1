//go:build !race

package transport

import "testing"

// TestUDPSendZeroAlloc pins the allocation-free send path: a unicast
// Send addresses the socket with a netip.AddrPort built from the ID,
// and SendBatch reuses the cached RawConn and a pooled message vector.
// (Race instrumentation allocates, so this runs un-instrumented only.)
func TestUDPSendZeroAlloc(t *testing.T) {
	a, b := newUDP(t), newUDP(t)
	dst := b.LocalID()
	one := make([]byte, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.Send(dst, one); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Send: %.1f allocs per datagram, want 0", allocs)
	}
	four := [][]byte{one, one, one, one}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.SendBatch(dst, four); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SendBatch of 4: %.1f allocs per call, want 0", allocs)
	}
}
