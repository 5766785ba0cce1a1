package proxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// sentPacket is one reliable packet as the member received it.
type sentPacket struct {
	from    ident.ID
	ptype   wire.PacketType
	payload []byte
}

// recvPackets collects up to want packets from the member's channel,
// copying each payload before releasing the packet.
func recvPackets(ch *reliable.Channel, want int, timeout time.Duration) []sentPacket {
	var got []sentPacket
	deadline := time.Now().Add(timeout)
	for len(got) < want && time.Now().Before(deadline) {
		pkt, err := ch.RecvTimeout(time.Until(deadline))
		if err != nil {
			break
		}
		got = append(got, sentPacket{
			from:    pkt.Sender,
			ptype:   pkt.Type,
			payload: append([]byte(nil), pkt.Payload...),
		})
		pkt.Release()
	}
	return got
}

func collectPublishes() (Publisher, *[]*event.Event, *sync.Mutex) {
	var mu sync.Mutex
	var events []*event.Event
	return func(e *event.Event) error {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
		return nil
	}, &events, &mu
}

func fastCfg() Config {
	return Config{QueueCap: 16, RedeliveryInterval: 10 * time.Millisecond}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestProxyDeliversFIFO(t *testing.T) {
	r := newDeviceRig(t, &GenericDevice{}, nil, fastCfg())
	p := r.px

	for i := 0; i < 10; i++ {
		e := event.NewTyped("x").SetInt("n", int64(i))
		e.Sender, e.Seq = 1, uint64(i+1)
		p.Enqueue(e)
	}
	sends := recvPackets(r.member, 10, 2*time.Second)
	if len(sends) != 10 {
		t.Fatalf("member received %d/10", len(sends))
	}
	for i, s := range sends {
		if s.ptype != wire.PktEvent || s.from != r.sender.LocalID() {
			t.Fatalf("send %d: %v from %s", i, s.ptype, s.from)
		}
		e, err := wire.DecodeEvent(s.payload)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := e.Get("n")
		if n, _ := v.Int(); n != int64(i) {
			t.Fatalf("send %d carries n=%d", i, n)
		}
	}
	// Delivered counts acknowledgements, which trail the arrivals.
	waitFor(t, 2*time.Second, func() bool { return p.Stats().Delivered == 10 })
	if st := p.Stats(); st.Enqueued != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyRedeliversAfterFailures(t *testing.T) {
	r := newDeviceRig(t, &GenericDevice{}, nil, fastCfg())
	p := r.px

	// The member is out of range: the channel gives up on each attempt
	// and the proxy resends after RedeliveryInterval.
	r.net.Isolate(r.member.LocalID())
	p.Enqueue(event.NewTyped("x"))
	waitFor(t, 5*time.Second, func() bool { return p.Stats().Redeliveries >= 2 })
	r.net.Restore(r.member.LocalID())

	if got := recvPackets(r.member, 1, 5*time.Second); len(got) != 1 {
		t.Fatalf("member received %d packets, want 1", len(got))
	}
	waitFor(t, 2*time.Second, func() bool { return p.Stats().Delivered == 1 })
	if extra := recvPackets(r.member, 1, 100*time.Millisecond); len(extra) != 0 {
		t.Errorf("redelivery surfaced twice: %d extra", len(extra))
	}
}

func TestProxyQueueBoundedDropOldest(t *testing.T) {
	// An unreachable member wedges the window of one; the queue then
	// overflows and drops the oldest.
	cfg := Config{QueueCap: 4, RedeliveryInterval: time.Hour, Pipeline: 1}
	r := newDeviceRig(t, &GenericDevice{}, nil, cfg)
	r.net.Isolate(r.member.LocalID())
	p := r.px

	for i := 0; i < 10; i++ {
		p.Enqueue(event.NewTyped("x").SetInt("n", int64(i)))
	}
	waitFor(t, time.Second, func() bool { return p.Stats().DroppedOldest >= 5 })
	if q := p.QueueLen(); q > 4 {
		t.Errorf("queue len = %d, cap 4", q)
	}
}

func TestPurgeDiscardsQueueAndStops(t *testing.T) {
	cfg := Config{QueueCap: 16, RedeliveryInterval: time.Hour, Pipeline: 1}
	r := newDeviceRig(t, &GenericDevice{}, nil, cfg)
	r.net.Isolate(r.member.LocalID())
	p := r.px

	for i := 0; i < 5; i++ {
		p.Enqueue(event.NewTyped("x"))
	}
	p.Purge()
	st := p.Stats()
	if st.DiscardedOnPurge == 0 {
		t.Errorf("nothing discarded: %+v", st)
	}
	// After purge, enqueue is a no-op.
	p.Enqueue(event.NewTyped("y"))
	if p.QueueLen() != 0 {
		t.Error("enqueue after purge")
	}
	// Purge is idempotent.
	p.Purge()
}

func TestHandleInboundGenericDevice(t *testing.T) {
	pub, events, mu := collectPublishes()
	p := newDeviceRig(t, &GenericDevice{}, pub, fastCfg()).px

	src := event.NewTyped("reading").SetFloat("v", 1.5)
	if err := p.HandleInbound(wire.EncodeEvent(src)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*events) != 1 {
		t.Fatalf("published %d", len(*events))
	}
	got := (*events)[0]
	if got.Sender != p.Member() {
		t.Errorf("sender = %s, want member", got.Sender)
	}
	if got.Seq != 1 {
		t.Errorf("seq = %d", got.Seq)
	}
	if got.Type() != "reading" {
		t.Errorf("type = %s", got.Type())
	}
}

func TestHandleInboundBadData(t *testing.T) {
	pub, _, _ := collectPublishes()
	p := newDeviceRig(t, &GenericDevice{}, pub, fastCfg()).px
	if err := p.HandleInbound([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

// translatingDevice converts outbound events to raw command bytes.
type translatingDevice struct{}

func (translatingDevice) DeviceType() string { return "xlate" }
func (translatingDevice) TranslateIn(data []byte) ([]*event.Event, error) {
	return []*event.Event{event.NewTyped("in")}, nil
}
func (translatingDevice) TranslateOut(e *event.Event) ([]byte, bool, error) {
	if e.Type() == "cmd" {
		return []byte{0xC0}, true, nil
	}
	return nil, false, nil
}
func (translatingDevice) InitialSubscriptions() []*event.Filter {
	return []*event.Filter{event.NewFilter().WhereType("cmd")}
}

func TestTranslateOutProducesDataPackets(t *testing.T) {
	r := newDeviceRig(t, translatingDevice{}, nil, fastCfg())
	p := r.px

	p.Enqueue(event.NewTyped("cmd"))
	p.Enqueue(event.NewTyped("other"))
	sends := recvPackets(r.member, 2, 2*time.Second)
	if len(sends) != 2 {
		t.Fatalf("member received %d/2", len(sends))
	}
	if sends[0].ptype != wire.PktData || sends[0].payload[0] != 0xC0 {
		t.Errorf("first send = %v % x", sends[0].ptype, sends[0].payload)
	}
	if sends[1].ptype != wire.PktEvent {
		t.Errorf("second send = %v", sends[1].ptype)
	}
	if p.Stats().TranslatedOut != 1 {
		t.Errorf("TranslatedOut = %d", p.Stats().TranslatedOut)
	}
	if p.DeviceType() != "xlate" {
		t.Errorf("DeviceType = %s", p.DeviceType())
	}
	if len(p.InitialSubscriptions()) != 1 {
		t.Error("initial subscriptions lost")
	}
}

// failingOutDevice errors on translation.
type failingOutDevice struct{ GenericDevice }

func (failingOutDevice) TranslateOut(*event.Event) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("cannot translate")
}

func TestTranslateOutErrorDropsEvent(t *testing.T) {
	r := newDeviceRig(t, &failingOutDevice{}, nil, fastCfg())
	p := r.px
	p.Enqueue(event.NewTyped("x"))
	p.Enqueue(event.NewTyped("y"))
	if n := len(recvPackets(r.member, 1, 100*time.Millisecond)); n != 0 {
		t.Errorf("%d sends despite translation errors", n)
	}
	if p.QueueLen() != 0 {
		t.Error("undeliverable events wedged the queue")
	}
}

func TestGenericDeviceDefaults(t *testing.T) {
	g := &GenericDevice{}
	if g.DeviceType() != "generic" {
		t.Errorf("type = %s", g.DeviceType())
	}
	g2 := &GenericDevice{Type: "custom"}
	if g2.DeviceType() != "custom" {
		t.Errorf("type = %s", g2.DeviceType())
	}
	if data, ok, err := g.TranslateOut(event.New()); data != nil || ok || err != nil {
		t.Error("generic TranslateOut not pass-through")
	}
	if g.InitialSubscriptions() != nil {
		t.Error("generic device has subscriptions")
	}
}

// mutatingDevice stamps every outbound event in TranslateOut and
// declares it via EventMutator, so the proxy must hand it a private
// clone rather than the shared dispatch copy.
type mutatingDevice struct {
	GenericDevice
}

func (d *mutatingDevice) TranslateOut(e *event.Event) ([]byte, bool, error) {
	e.SetStr("stamped-by", "mutator")
	return []byte{0xAB}, true, nil
}

func (d *mutatingDevice) MutatesEvents() bool { return true }

// TestMutatingDeviceGetsPrivateClone locks in the zero-copy dispatch
// contract: events are enqueued shared, and only a device that
// declares MutatesEvents sees (and pays for) a private copy.
func TestMutatingDeviceGetsPrivateClone(t *testing.T) {
	r := newDeviceRig(t, &mutatingDevice{}, nil, fastCfg())

	shared := event.NewTyped("x").SetInt("n", 1)
	shared.Sender, shared.Seq = 1, 1
	r.px.Enqueue(shared)
	sends := recvPackets(r.member, 1, 2*time.Second)
	if len(sends) != 1 {
		t.Fatalf("member received %d/1", len(sends))
	}

	if shared.Has("stamped-by") {
		t.Error("device mutation leaked into the shared event")
	}
	if got := sends[0]; got.ptype != wire.PktData || got.payload[0] != 0xAB {
		t.Errorf("translated send = %v %x", got.ptype, got.payload)
	}
}
