package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestCellStatsRoundTrip(t *testing.T) {
	in := CellStats{
		Cell:           "ward-3",
		Members:        17,
		Published:      101,
		DeliveredLocal: 42,
		EnqueuedRemote: 59,
		Dropped:        3,
		Quenches:       2,
		AuthDenied:     1,
		BusChannel: ChannelCounters{
			Sent: 1000, Acked: 998, Retransmits: 12, FastRetransmits: 2,
			Failures: 2, Resumed: 1, StreamResets: 1, Received: 2000,
			DupsDropped: 5, Buffered: 7, StaleAcks: 3, StaleEpoch: 1,
			UnreliableIn: 40, UnreliableOut: 41,
			PacketsAcquired: 2050, PacketsRecycled: 2049,
		},
		DiscChannel: ChannelCounters{
			Sent: 10, Acked: 10, Received: 30,
			PacketsAcquired: 30, PacketsRecycled: 30,
		},
		Log: LogCounters{
			Enabled: true, Epoch: 0xfeedface, OldestCursor: 100,
			NewestCursor: 900, Events: 801, Bytes: 65536, Segments: 4,
			Appended: 905, Evicted: 104, DupsDropped: 5,
			SegmentsAcquired: 9, SegmentsRecycled: 5,
		},
		Durables: []DurableCounters{
			{Name: "ward-nurse", Attached: true, Delivered: 890, Lag: 10},
			{Name: "archive", Attached: false, Delivered: 450, Lag: 450},
		},
		Federation: []FederationCounters{
			{
				Name: "ward-gateway", RemoteCell: "icu", Connected: true,
				Imported: 120, Skipped: 4, Dropped: 1, Reconnects: 3,
				ResumeEpoch: 0xdeadbeef, ResumeCursor: 118,
			},
			{Name: "cold-link", RemoteCell: "lab"},
		},
	}
	buf := AppendCellStats(nil, in)
	out, err := DecodeCellStats(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if got := out.BusChannel.Leaked(); got != 1 {
		t.Fatalf("bus leak = %d, want 1", got)
	}
	if got := out.DiscChannel.Leaked(); got != 0 {
		t.Fatalf("disc leak = %d, want 0", got)
	}
}

func TestCellStatsDecodeRejectsTruncationAndTrailer(t *testing.T) {
	buf := AppendCellStats(nil, CellStats{Cell: "c", Members: 1})
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeCellStats(buf[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := DecodeCellStats(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestStatsPacketTypesNamed(t *testing.T) {
	if PktStatsRequest.String() != "stats-request" || PktStatsResponse.String() != "stats-response" {
		t.Fatalf("packet type names: %s / %s", PktStatsRequest, PktStatsResponse)
	}
}

// FuzzDecodeCellStats fuzzes the stats-response decoder smctap runs on
// a cell's reply: arbitrary bytes must never panic, and a snapshot that
// decodes re-encodes to bytes that decode and re-encode identically.
func FuzzDecodeCellStats(f *testing.F) {
	f.Add(AppendCellStats(nil, CellStats{
		Cell: "ward-3", Members: 2, Published: 9,
		Log:        LogCounters{Enabled: true, Epoch: 7, Events: 3},
		Durables:   []DurableCounters{{Name: "nurse", Attached: true, Lag: 1}},
		Federation: []FederationCounters{{Name: "gw", RemoteCell: "icu", Imported: 4}},
	}))
	f.Add(AppendCellStats(nil, CellStats{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeCellStats(data)
		if err != nil {
			return // invalid payloads are rejected, never crash
		}
		re := AppendCellStats(nil, s)
		s2, err := DecodeCellStats(re)
		if err != nil {
			t.Fatalf("re-encoded stats do not decode: %v", err)
		}
		if re2 := AppendCellStats(nil, s2); !bytes.Equal(re, re2) {
			t.Fatalf("stats re-encode unstable\nfirst  %x\nsecond %x", re, re2)
		}
	})
}
