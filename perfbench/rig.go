package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	smc "github.com/amuse/smc"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
)

const (
	cellName   = "perfbench"
	memberType = "bench-member"
	probeType  = "probe"
	pageType   = "page"
)

var secret = []byte("perfbench-secret")

var epoch = time.Now()

// now is the benchmark's monotonic clock, in ns since it started.
func now() int64 { return int64(time.Since(epoch)) }

// memberSpec describes one member a workload joins.
type memberSpec struct {
	name      string
	publishes bool
	durable   string // durable consumer name; "" for a live member
	filters   []*event.Filter
}

// spec is a workload's cell composition.
type spec struct {
	mem     bool // in-process netsim.Perfect instead of loopback UDP
	durable bool // in-memory durable log with default retention
	policy  string
	members []memberSpec
	window  int // publications outstanding end to end in a closed loop
	// ring bounds publications outstanding per publisher (default
	// ringSize); an open loop needs room for its backlog.
	ring int
}

// member is one joined member and its consumer's state. handled,
// probed and order are owned by the consumer goroutine and read once
// it has exited.
type member struct {
	spec    *memberSpec
	idx     int
	dev     *smc.Device
	handled uint64 // events taken from Events(), probes included
	probed  bool
	order   fifo
	stream  *stream // durable members: the reference stream
	// received sums EventsReceived of the member's earlier sessions.
	received uint64
	consumed chan struct{} // closed when the current session's consumer exits
}

// publisher is a publishing member. count is the number of publishes
// its client has accepted, which fixes the next event's seq; only the
// publishing goroutine touches it.
type publisher struct {
	m     *member
	idx   int
	count uint64
	acks  chan pendingAck
}

type pendingAck struct {
	comp *reliable.Completion
	seq  uint64
}

// rig is one composed cell with its members joined, subscribed and
// probed, ready to drive.
type rig struct {
	sp  *spec
	in  *inputs
	tr  *tracer // nil in an untraced run
	net *netsim.Network

	cell    *smc.Cell
	members []*member
	pubs    []*publisher
	pubIdx  atomic.Pointer[map[ident.ID]int]
	oracle  *Oracle
	nextIn  int
	addr    uint64

	// win slices the correct deliveries of the part being measured.
	win atomic.Pointer[windows]

	// End-to-end window: a closed loop takes a token per publication
	// and the oracle hands it back when the publication completes.
	sem         atomic.Pointer[chan struct{}]
	windowed    atomic.Bool
	outstanding atomic.Int64

	unprobed  atomic.Int32
	allProbed chan struct{}

	// Catch-up of a rejoining durable member: it is caught up when its
	// stream passes catchSeq.
	catchSeq     atomic.Uint64
	caughtUp     chan struct{}
	catchAt      atomic.Int64
	catchCorrect atomic.Uint64
	streamNext   atomic.Uint64 // the durable stream's next seq, for waiters

	consumers sync.WaitGroup
	reapers   sync.WaitGroup

	joinNs  []int64
	setupNs int64
}

// ringSize is the default ring: well above every closed-loop window.
const ringSize = 1 << 12

// newRig composes the cell and brings every member to ready. The
// untraced rig registers the member device type backed by a plain
// proxy.GenericDevice and keeps the cell's own authoriser; the traced
// rig wraps both, and every transport, with timing.
func newRig(sp *spec, in *inputs, tr *tracer) (*rig, error) {
	r := &rig{sp: sp, in: in, tr: tr, allProbed: make(chan struct{}), caughtUp: make(chan struct{})}
	ring := ringSize
	if sp.ring > 0 {
		ring = sp.ring
	}
	r.oracle = NewOracle(countPubs(sp), ring, r.completed)
	if err := r.setup(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func countPubs(sp *spec) int {
	n := 0
	for _, m := range sp.members {
		if m.publishes {
			n++
		}
	}
	return n
}

func (r *rig) transport() (transport.Transport, error) {
	var tr transport.Transport
	if r.net != nil {
		r.addr++
		ep, err := r.net.Attach(ident.New(0x10000 + r.addr))
		if err != nil {
			return nil, err
		}
		tr = ep
	} else {
		u, err := transport.NewUDPTransport()
		if err != nil {
			return nil, err
		}
		tr = u
	}
	if r.tr != nil {
		tr = r.tr.wrap(tr)
	}
	return tr, nil
}

// setup runs from the cell's creation until every member has joined and
// subscribed and a probe event has reached every subscriber.
func (r *rig) setup() error {
	start := time.Now()
	if r.sp.mem {
		r.net = netsim.New(netsim.Perfect)
	}
	busTr, err := r.transport()
	if err != nil {
		return err
	}
	discTr, err := r.transport()
	if err != nil {
		_ = busTr.Close()
		return err
	}
	cfg := smc.Config{Cell: cellName, Secret: secret, PolicyText: r.sp.policy}
	if r.sp.durable {
		cfg.Durable = &store.Config{}
	}
	cell, err := smc.NewCell(busTr, discTr, cfg)
	if err != nil {
		_ = busTr.Close()
		_ = discTr.Close()
		return fmt.Errorf("new cell: %w", err)
	}
	r.cell = cell
	if err := cell.Registry.Register(memberType, r.device); err != nil {
		return err
	}
	if r.tr != nil {
		cell.Bus.SetAuthorizer(timedAuth{Authorizer: cell.Policy, tr: r.tr})
	}
	cell.Start()

	pubs := map[ident.ID]int{}
	for i := range r.sp.members {
		ms := &r.sp.members[i]
		m := &member{spec: ms, idx: i, order: fifo{}}
		r.members = append(r.members, m)
		if ms.publishes {
			p := &publisher{m: m, idx: len(r.pubs), acks: make(chan pendingAck, reliable.DefaultConfig().MaxPending)}
			r.pubs = append(r.pubs, p)
			r.reapers.Add(1)
			go r.reap(p)
		}
		if len(ms.filters) > 0 {
			r.unprobed.Add(1)
		}
	}
	for _, m := range r.members {
		if err := r.join(m, client.DurablePosition{}); err != nil {
			return err
		}
		if m.spec.publishes {
			pubs[m.dev.Client.ID()] = len(pubs)
		}
		for _, f := range m.spec.filters {
			if err := m.dev.Client.Subscribe(f); err != nil {
				return fmt.Errorf("subscribe %s: %w", m.spec.name, err)
			}
		}
		if len(m.spec.filters) > 0 {
			if err := m.dev.Client.Subscribe(event.NewFilter().WhereType(probeType)); err != nil {
				return fmt.Errorf("subscribe %s: %w", m.spec.name, err)
			}
		}
	}
	r.pubIdx.Store(&pubs)
	if err := r.probe(); err != nil {
		return err
	}
	r.setupNs = int64(time.Since(start))
	return nil
}

// device is the member type's proxy factory.
func (r *rig) device(id ident.ID, _ string) proxy.Device {
	g := &proxy.GenericDevice{Type: memberType}
	if r.tr == nil {
		return g
	}
	return &timedDevice{GenericDevice: g, member: id, tr: r.tr}
}

// join joins m (resuming its durable consumer at pos) and starts its
// consumer.
func (r *rig) join(m *member, pos client.DurablePosition) error {
	tr, err := r.transport()
	if err != nil {
		return err
	}
	start := time.Now()
	dev, err := smc.JoinCell(tr, smc.DeviceConfig{
		Type: memberType, Name: m.spec.name, Secret: secret,
		Cell: cellName, Discovery: r.cell.Discovery.ID(),
		Durable: m.spec.durable, DurablePosition: pos,
	})
	r.joinNs = append(r.joinNs, int64(time.Since(start)))
	if err != nil {
		return fmt.Errorf("join %s: %w", m.spec.name, err)
	}
	m.dev = dev
	if r.tr != nil {
		pub := -1
		for _, p := range r.pubs {
			if p.m == m {
				pub = p.idx
			}
		}
		r.tr.addMember(dev.Client.ID(), m.idx, pub)
	}
	m.consumed = make(chan struct{})
	r.consumers.Add(1)
	go r.consume(m, dev.Client)
	return nil
}

// probe publishes probe events from the first publisher until every
// subscriber has received one: then all their filters are installed.
func (r *rig) probe() error {
	if r.unprobed.Load() == 0 {
		return nil
	}
	p := r.pubs[0]
	e := event.NewTyped(probeType)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for try := 0; try < 500; try++ {
		if err := p.m.dev.Client.Publish(e); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		p.count++
		timer.Reset(20 * time.Millisecond)
		select {
		case <-r.allProbed:
			return nil
		case <-timer.C:
		}
	}
	return errors.New("probe: subscribers not reached within 10 s")
}

func (r *rig) consume(m *member, c *client.Client) {
	defer r.consumers.Done()
	defer close(m.consumed)
	for e := range c.Events() {
		at := now()
		m.handled++
		r.handle(m, e, at)
		e.Release()
	}
}

func (r *rig) handle(m *member, e *event.Event, at int64) {
	switch e.Type() {
	case probeType:
		if !m.probed {
			m.probed = true
			if r.unprobed.Add(-1) == 0 {
				close(r.allProbed)
			}
		}
		return
	case pageType:
		r.handlePage(m, e, at)
		return
	}
	pub, ok := r.pubOf(e.Sender)
	if !ok {
		r.oracle.flag(vWrongRecipient)
		return
	}
	if m.stream != nil {
		if r.oracle.StreamDeliver(m.stream, e.Seq, e.Cursor) != vDuplicate {
			r.counted(at, 0, false)
		}
		r.streamNext.Store(m.stream.next)
		if m.stream.next > r.catchSeq.Load() && r.catchAt.Load() == 0 {
			r.catchCorrect.Store(r.oracle.correct.Load())
			r.catchAt.Store(at)
			close(r.caughtUp)
		}
		return
	}
	lat, timed, v := r.oracle.Deliver(m.idx, pub, e.Seq, fingerprint(e), true, at, m.order.inOrder(e.Sender, e.Seq))
	if v == vNone {
		r.counted(at, lat, timed)
	}
	if r.tr.sampled(e.Seq) {
		r.tr.handled(pub, e.Seq, m.idx, at, lat)
	}
}

// handlePage checks an event an obligation derived: it belongs to the
// publication that triggered it, on the (member, obligation) channel.
func (r *rig) handlePage(m *member, e *event.Event, at int64) {
	name, _ := attrStr(e, "policy")
	sender, _ := attrInt(e, "trigger-sender")
	seq, _ := attrInt(e, "trigger-seq")
	k, okOb := r.in.obIndex[name]
	bit, okBit := r.in.derived[[2]int{m.idx, k}]
	pub, okPub := r.pubOf(ident.ID(sender))
	if !okOb || !okBit || !okPub {
		r.oracle.flag(vWrongRecipient)
		return
	}
	lat, timed, v := r.oracle.Deliver(bit, pub, uint64(seq), 0, false, at, m.order.inOrder(e.Sender, e.Seq))
	if v == vNone {
		r.counted(at, lat, timed)
	}
}

// counted records a correct delivery handled at at.
func (r *rig) counted(at, lat int64, timed bool) {
	if w := r.win.Load(); w != nil {
		w.delivered(at, lat, timed)
	}
}

// pubOf maps a publisher's client ID to its index.
func (r *rig) pubOf(id ident.ID) (int, bool) {
	pubs := r.pubIdx.Load()
	if pubs == nil {
		return 0, false
	}
	pub, ok := (*pubs)[id]
	return pub, ok
}

func attrStr(e *event.Event, name string) (string, bool) {
	v, ok := e.Get(name)
	if !ok {
		return "", false
	}
	return v.Str()
}

func attrInt(e *event.Event, name string) (int64, bool) {
	v, ok := e.Get(name)
	if !ok {
		return 0, false
	}
	return v.Int()
}

// reap settles p's publish completions in order.
func (r *rig) reap(p *publisher) {
	defer r.reapers.Done()
	for a := range p.acks {
		err := a.comp.Wait()
		if r.tr.sampled(a.seq) {
			r.tr.acked(p.idx, a.seq, now())
		}
		a.comp.Recycle()
		r.oracle.Acked(p.idx, a.seq, err)
	}
}

// completed is the oracle's callback for a completed publication.
func (r *rig) completed() {
	r.outstanding.Add(-1)
	if r.windowed.Load() {
		<-*r.sem.Load()
	}
}

// publish sends input i. timed publications give a latency sample,
// measured from due when it is set (open loop) and from the
// PublishAsync call otherwise.
func (r *rig) publish(i int, due int64, timed bool) error {
	p := r.pubs[r.in.pub[i]]
	seq := p.count + 1
	if err := r.oracle.Expect(p.idx, seq, r.in.fp[i], r.in.want[i]); err != nil {
		return err
	}
	r.outstanding.Add(1)
	start := now()
	if timed {
		t0 := start
		if due > 0 {
			t0 = due
		}
		r.oracle.Stamp(p.idx, seq, t0)
	}
	sampled := r.tr.sampled(seq)
	if sampled {
		r.tr.begin(p.idx, seq, start)
	}
	e := r.in.events[i]
	comp, err := p.m.dev.Client.PublishAsync(e)
	if err != nil {
		// Refused before a seq was assigned: the next publish reuses it.
		r.oracle.Acked(p.idx, seq, err)
		return nil
	}
	p.count++
	if e.Seq != seq {
		return fmt.Errorf("publisher %d: client assigned seq %d, expected %d", p.idx, e.Seq, seq)
	}
	if sampled {
		r.tr.published(p.idx, seq, now())
	}
	p.acks <- pendingAck{comp: comp, seq: seq}
	return nil
}

// next returns the next input, cycling through the pool.
func (r *rig) next() int {
	i := r.nextIn % len(r.in.events)
	r.nextIn++
	return i
}

// errStalled reports a closed loop in which nothing completed for
// stallTimeout: a delivery was lost and its window token never came back.
var errStalled = errors.New("closed loop stalled: no publication completed for 10 s")

const stallTimeout = 10 * time.Second

// closedLoop publishes inputs with at most window publications
// outstanding end to end, until limit publications or the deadline,
// then waits for the outstanding ones.
func (r *rig) closedLoop(until time.Time, limit int, timed bool, window int) (int, error) {
	sem := make(chan struct{}, window)
	r.sem.Store(&sem)
	r.windowed.Store(true)
	defer r.windowed.Store(false)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	n := 0
	for n < limit && time.Now().Before(until) {
		select {
		case sem <- struct{}{}:
		default:
			timer.Reset(stallTimeout)
			select {
			case sem <- struct{}{}:
				timer.Stop()
			case <-timer.C:
				return n, errStalled
			}
		}
		if err := r.publish(r.next(), 0, timed); err != nil {
			return n, err
		}
		n++
	}
	return n, r.drain()
}

// drain waits until every publication has completed.
func (r *rig) drain() error {
	deadline := time.Now().Add(stallTimeout)
	for r.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d publications still outstanding after %v", r.outstanding.Load(), stallTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close stops every goroutine the rig started and shuts the cell down.
func (r *rig) close() {
	for _, p := range r.pubs {
		close(p.acks)
	}
	r.reapers.Wait()
	for _, m := range r.members {
		if m.dev != nil {
			_ = m.dev.Close()
		}
	}
	r.consumers.Wait()
	if r.cell != nil {
		if err := r.cell.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close cell:", err)
		}
	}
	if r.net != nil {
		_ = r.net.Close()
	}
}

// usage samples the Go allocator, for deltas over a phase.
type usage struct {
	alloc uint64
	gcs   uint32
}

func takeUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sampler polls the Go heap, the process CPU time and, with a durable
// log, the consumer lag until stopped, filling each slice's CPU time
// and heap peak and keeping the lag peak.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	polls   uint64
	lagPeak uint64
}

func startSampler(cell *smc.Cell, win *atomic.Pointer[windows]) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		lastCPU := cpuNs()
		for {
			metrics.Read(ms)
			s.polls++
			heap := ms[0].Value.Uint64()
			cpu := cpuNs()
			if w := win.Load(); w != nil {
				if i := w.index(now()); i >= 0 {
					w.heap[i] = max(w.heap[i], heap)
					w.cpuNs[i] += cpu - lastCPU
				}
			}
			lastCPU = cpu
			if cell.Bus.DurableLog() != nil {
				_, rows := cell.Bus.LogReport()
				for _, row := range rows {
					if row.Lag > s.lagPeak {
						s.lagPeak = row.Lag
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}
