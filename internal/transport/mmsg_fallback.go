//go:build !linux || !(amd64 || arm64)

package transport

import (
	"sync"

	"github.com/amuse/smc/internal/ident"
)

// Portable fallback: platforms without the recvmmsg/sendmmsg fast
// path read one datagram per syscall and SendBatch degrades to
// sequential Send calls.

const batchSyscallsAvailable = false

// mmsgBatch mirrors the linux fast path's vector size so portable
// builds share test coverage of multi-chunk batches.
const mmsgBatch = 32

// recvBufPool recycles full-size receive buffers across receives.
var recvBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, MaxUDPDatagram+1)
	return &b
}}

// recv reads one datagram on the calling goroutine. Caller holds
// t.rmu.
func (t *UDPTransport) recv(dst []Datagram) (int, error) {
	bp := recvBufPool.Get().(*[]byte)
	defer recvBufPool.Put(bp)
	for {
		n, from, err := t.conn.ReadFromUDP(*bp)
		if err != nil {
			return 0, readErr(err)
		}
		if id, err := ident.FromUDPAddr(from); err == nil {
			dst[0] = pooledDatagram(id, (*bp)[:n])
			return 1, nil
		}
	}
}

func (t *UDPTransport) sendBatched(dst ident.ID, bufs [][]byte) error {
	for _, b := range bufs {
		if err := t.Send(dst, b); err != nil {
			return err
		}
	}
	return nil
}
