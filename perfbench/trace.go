package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/transport"
)

// Stages of one delivery, in path order. For a sampled publication the
// first five partition publish→handler with no gap:
//
//	publish   PublishAsync call (client encode, reliable enqueue)
//	uplink    PublishAsync return → bus calls AuthorizePublish
//	authorize AuthorizePublish self time (policy)
//	dispatch  AuthorizePublish return → recipient proxy's TranslateOut
//	          (shard handoff, match, proxy queue wait)
//	downlink  TranslateOut → subscriber handler (encode, reliable
//	          window, transport, receive, decode, client inbox)
//
// ack (PublishAsync return → its Completion settles) overlaps them.
const (
	stPublish = iota
	stUplink
	stAuthorize
	stDispatch
	stDownlink
	stAck
	nStages
)

var stageNames = [nStages]string{"publish", "uplink", "authorize", "dispatch", "downlink", "ack"}

// tracer samples one publication in every `every` (by sequence number)
// and records its timestamps at each boundary it can see from outside
// the program: the benchmark's own calls, and wrappers around the
// interfaces the program accepts (transport.Transport, bus.Authorizer,
// proxy.Device). Samples stay in memory until the run ends.
type tracer struct {
	every uint64

	mu      sync.Mutex
	pubs    map[ident.ID]int // publisher client ID → publisher index
	members map[ident.ID]int // member client ID → member index
	recs    map[uint64]*sample

	sendCalls  atomic.Uint64 // Send and SendBatch calls
	batchCalls atomic.Uint64
	batchDgram atomic.Uint64
	sendNs     atomic.Int64
}

// sample holds one sampled publication's boundary times (ns, see now).
type sample struct {
	pub       int
	seq       uint64
	start, t1 int64 // PublishAsync call and return
	auth0     int64
	auth1     int64
	ack       int64
	out       map[int]int64 // member index → TranslateOut
	hand      map[int]int64 // member index → handler
	lat       map[int]int64 // member index → latency the oracle measured
}

func newTracer(every uint64) *tracer {
	return &tracer{
		every:   every,
		pubs:    make(map[ident.ID]int),
		members: make(map[ident.ID]int),
		recs:    make(map[uint64]*sample),
	}
}

func (t *tracer) sampled(seq uint64) bool { return t != nil && seq%t.every == 0 }

func key(pub int, seq uint64) uint64 { return uint64(pub)<<48 | seq }

// addMember registers a joined member (and publisher, when pub >= 0).
func (t *tracer) addMember(id ident.ID, idx, pub int) {
	t.mu.Lock()
	t.members[id] = idx
	if pub >= 0 {
		t.pubs[id] = pub
	}
	t.mu.Unlock()
}

// begin opens a sample just before PublishAsync is called.
func (t *tracer) begin(pub int, seq uint64, start int64) {
	t.mu.Lock()
	t.recs[key(pub, seq)] = &sample{pub: pub, seq: seq, start: start,
		out: map[int]int64{}, hand: map[int]int64{}, lat: map[int]int64{}}
	t.mu.Unlock()
}

// lookup returns the open sample of (sender, seq); callers hold t.mu.
func (t *tracer) lookup(sender ident.ID, seq uint64) *sample {
	pub, ok := t.pubs[sender]
	if !ok {
		return nil
	}
	return t.recs[key(pub, seq)]
}

func (t *tracer) published(pub int, seq uint64, t1 int64) {
	t.mu.Lock()
	if s := t.recs[key(pub, seq)]; s != nil {
		s.t1 = t1
	}
	t.mu.Unlock()
}

func (t *tracer) acked(pub int, seq uint64, at int64) {
	t.mu.Lock()
	if s := t.recs[key(pub, seq)]; s != nil {
		s.ack = at
	}
	t.mu.Unlock()
}

func (t *tracer) authorized(sender ident.ID, seq uint64, t0, t1 int64) {
	t.mu.Lock()
	if s := t.lookup(sender, seq); s != nil {
		s.auth0, s.auth1 = t0, t1
	}
	t.mu.Unlock()
}

func (t *tracer) translated(member ident.ID, e *event.Event, at int64) {
	t.mu.Lock()
	if s := t.lookup(e.Sender, e.Seq); s != nil {
		if idx, ok := t.members[member]; ok {
			if _, seen := s.out[idx]; !seen { // a redelivery is not the path
				s.out[idx] = at
			}
		}
	}
	t.mu.Unlock()
}

func (t *tracer) handled(pub int, seq uint64, member int, at, lat int64) {
	t.mu.Lock()
	if s := t.recs[key(pub, seq)]; s != nil {
		s.hand[member], s.lat[member] = at, lat
	}
	t.mu.Unlock()
}

func (t *tracer) sent(calls, batches, dgrams uint64, ns int64) {
	t.sendCalls.Add(calls)
	t.batchCalls.Add(batches)
	t.batchDgram.Add(dgrams)
	t.sendNs.Add(ns)
}

// spans folds the complete samples into the per-stage histograms st. A
// delivery is complete when every boundary was seen; the durable
// replay path bypasses TranslateOut, so replayed deliveries never are.
// checkSum requires the five path stages to add up to the latency the
// oracle measured for the delivery; it holds for closed loops, where
// latency is timed from the PublishAsync call. bad counts deliveries
// whose boundaries are out of causal order or fail that check.
func (t *tracer) spans(checkSum bool, st *[nStages]Hist) (complete, bad int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.recs {
		if s.ack > 0 && s.t1 > 0 {
			st[stAck].Record(s.ack - s.t1)
		}
		if s.t1 == 0 || s.auth0 == 0 {
			continue
		}
		for m, out := range s.out {
			hand, ok := s.hand[m]
			if !ok {
				continue
			}
			d := s.partition(out, hand)
			var sum int64
			ordered := true
			for _, v := range d {
				sum += v
				ordered = ordered && v >= 0
			}
			if !ordered || (checkSum && sum != s.lat[m]) {
				bad++
				continue
			}
			complete++
			for i, v := range d {
				st[i].Record(v)
			}
		}
	}
	return complete, bad
}

// partition splits start→hand at the stage boundaries. The bus may
// authorize before PublishAsync has returned to its caller; the
// publish stage then ends at the authorize call.
func (s *sample) partition(out, hand int64) [stAck]int64 {
	pubEnd := min(s.t1, s.auth0)
	return [stAck]int64{
		stPublish:   pubEnd - s.start,
		stUplink:    s.auth0 - pubEnd,
		stAuthorize: s.auth1 - s.auth0,
		stDispatch:  out - s.auth1,
		stDownlink:  hand - out,
	}
}

// dump writes every recorded span as CSV: stage, start and end (ns
// since the benchmark started), publisher, seq and recipient member
// (-1 for spans before fan-out).
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "stage,start_ns,end_ns,pub,seq,member")
	t.mu.Lock()
	for _, s := range t.recs {
		row := func(stage int, a, b int64, m int) {
			if a > 0 && b > 0 {
				fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", stageNames[stage], a, b, s.pub, s.seq, m)
			}
		}
		pubEnd := s.t1
		if s.auth0 > 0 {
			pubEnd = min(s.t1, s.auth0)
		}
		row(stPublish, s.start, pubEnd, -1)
		row(stUplink, pubEnd, s.auth0, -1)
		row(stAuthorize, s.auth0, s.auth1, -1)
		row(stAck, s.t1, s.ack, -1)
		for m, out := range s.out {
			row(stDispatch, s.auth1, out, m)
			row(stDownlink, out, s.hand[m], m)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTransport times and counts every send of the transport it wraps.
type timedTransport struct {
	transport.Transport
	tr *tracer
}

func (t *timedTransport) Send(dst ident.ID, data []byte) error {
	start := now()
	err := t.Transport.Send(dst, data)
	t.tr.sent(1, 0, 0, now()-start)
	return err
}

// timedBatchTransport keeps the wrapped transport's BatchSender, so the
// reliable channel keeps its sendmmsg path under tracing.
type timedBatchTransport struct {
	*timedTransport
	bs transport.BatchSender
}

func (t *timedBatchTransport) SendBatch(dst ident.ID, bufs [][]byte) error {
	start := now()
	err := t.bs.SendBatch(dst, bufs)
	t.tr.sent(1, 1, uint64(len(bufs)), now()-start)
	return err
}

func (t *timedBatchTransport) MaxDatagram() int { return t.bs.MaxDatagram() }

func (t *tracer) wrap(tr transport.Transport) transport.Transport {
	tt := &timedTransport{Transport: tr, tr: t}
	if bs, ok := tr.(transport.BatchSender); ok {
		return &timedBatchTransport{timedTransport: tt, bs: bs}
	}
	return tt
}

// timedAuth times the authoriser the cell installed.
type timedAuth struct {
	bus.Authorizer
	tr *tracer
}

func (a timedAuth) AuthorizePublish(member ident.ID, deviceType string, e *event.Event) error {
	if !a.tr.sampled(e.Seq) {
		return a.Authorizer.AuthorizePublish(member, deviceType, e)
	}
	t0 := now()
	err := a.Authorizer.AuthorizePublish(member, deviceType, e)
	a.tr.authorized(e.Sender, e.Seq, t0, now())
	return err
}

// timedDevice is the pass-through device with its TranslateOut timed.
// It still answers ok=false, so the proxy encodes the event itself.
type timedDevice struct {
	*proxy.GenericDevice
	member ident.ID
	tr     *tracer
}

func (d *timedDevice) TranslateOut(e *event.Event) ([]byte, bool, error) {
	if d.tr.sampled(e.Seq) {
		d.tr.translated(d.member, e, now())
	}
	return d.GenericDevice.TranslateOut(e)
}
