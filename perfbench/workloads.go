package main

import (
	"fmt"
	"time"

	"github.com/amuse/smc/internal/event"
)

// workload is one named input set and the way it drives a cell.
type workload struct {
	name string
	// headline is the end-to-end metric trace.overhead_frac compares
	// between the untraced and the traced run.
	headline string
	// closed loops time latency from the PublishAsync call; the open
	// loop times it from the due time.
	closed bool
	spec   func() *spec
	inputs func(sp *spec, seed int64) (*inputs, error)
	drive  func(r *rig, d time.Duration, ph *phase) error
}

var workloads = []*workload{
	{
		// Latency-bound: one event in flight, so every stage's cost and
		// every goroutine wake-up sits on the critical path.
		name: "rt-udp", headline: "rt_p50_us", closed: true,
		spec:   func() *spec { return pairSpec(1) },
		inputs: readingInputs(64),
		drive:  driveClosed,
	},
	{
		// Throughput-bound: a deep end-to-end window keeps the reliable
		// window, the proxy pipeline and sendmmsg/recvmmsg busy. 128 stays
		// below the client inbox (256), which drops when full.
		name: "stream-udp", headline: "cpu_us_per_event", closed: true,
		spec:   func() *spec { return pairSpec(128) },
		inputs: readingInputs(256),
		drive:  driveClosed,
	},
	{
		// Matching, dispatch, proxy fan-out and policy dominate; the
		// in-memory network costs no syscalls.
		name: "ward-mem", headline: "cpu_us_per_event", closed: true,
		spec: func() *spec {
			return &spec{mem: true, policy: wardPolicy, members: wardMembers(), window: 64}
		},
		inputs: func(sp *spec, seed int64) (*inputs, error) {
			events, pubOf := wardEvents(seed, 8192)
			return newInputs(sp, events, pubOf)
		},
		drive: driveClosed,
	},
	{
		// Durable log appends and replay reads together: a roamer catches
		// up on the events it missed while live traffic keeps flowing.
		name: "roam-durable", headline: "catchup_s", closed: false,
		spec: func() *spec {
			reading := []*event.Filter{event.NewFilter().WhereType("reading")}
			// The ring holds 16 s of open-loop backlog at roamRate.
			return &spec{mem: true, durable: true, window: 128, ring: 1 << 15, members: []memberSpec{
				{name: "publisher", publishes: true},
				{name: "live", filters: reading},
				{name: "roamer", durable: "ward-roamer", filters: reading},
			}}
		},
		inputs: readingInputs(64),
		drive:  driveRoam,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pairSpec is one publisher and one subscriber device over loopback
// UDP: two client sockets.
func pairSpec(window int) *spec {
	return &spec{window: window, members: []memberSpec{
		{name: "publisher", publishes: true},
		{name: "subscriber", filters: []*event.Filter{event.NewFilter().WhereType("reading")}},
	}}
}

func readingInputs(size int) func(*spec, int64) (*inputs, error) {
	return func(sp *spec, seed int64) (*inputs, error) {
		events, err := readings(seed, 4096, size)
		if err != nil {
			return nil, err
		}
		return newInputs(sp, events, make([]int, len(events)))
	}
}

// rtShare of a loaded closed loop's time measures response time first,
// with one publication in flight.
const rtShare = 0.4

// driveClosed measures response time with one publication in flight,
// then — for a workload with a deeper window — the loaded closed loop,
// each part in its own slices.
func driveClosed(r *rig, d time.Duration, ph *phase) error {
	const forever = int(^uint(0) >> 1)
	if r.sp.window > 1 {
		rt := time.Duration(float64(d) * rtShare)
		ph.rtWin = newWindows(now(), rt)
		r.win.Store(ph.rtWin)
		if _, err := r.closedLoop(time.Now().Add(rt), forever, true, 1); err != nil {
			return err
		}
		d -= rt
	}
	ph.win = newWindows(now(), d)
	r.win.Store(ph.win)
	if ph.rtWin == nil {
		ph.rtWin = ph.win
	}
	start, correct0 := now(), r.oracle.correct.Load()
	_, err := r.closedLoop(time.Now().Add(d), forever, true, r.sp.window)
	ph.epsNs = now() - start
	ph.epsCount = r.oracle.correct.Load() - correct0
	return err
}

// Roaming: the durable member leaves, misses roamGap publications
// (published as fast as the end-to-end window allows, untimed), then
// rejoins with its saved position while the publisher runs open-loop
// at roamRate. Latency is the live subscriber's, from each event's due
// time.
const (
	roamGap  = 100_000
	roamRate = 2000 // publications per second
)

func driveRoam(r *rig, d time.Duration, ph *phase) error {
	until := time.Now().Add(d)
	ph.win = newWindows(now(), d)
	ph.rtWin = ph.win
	r.win.Store(ph.win)
	roamer := r.members[2]
	pos := roamer.dev.Client.DurablePosition()
	roamer.received += roamer.dev.Client.Stats().EventsReceived
	if err := roamer.dev.Leave(); err != nil {
		return fmt.Errorf("roamer leave: %w", err)
	}
	<-roamer.consumed
	pub := r.pubs[0]
	first := pub.count + 1
	if _, err := r.closedLoop(until.Add(time.Minute), roamGap, false, r.sp.window); err != nil {
		return err
	}
	r.catchSeq.Store(pub.count)
	roamer.stream = &stream{next: first}

	catch0 := now()
	correct0 := r.oracle.correct.Load()
	joined := make(chan error, 1)
	go func() { joined <- r.join(roamer, pos) }()

	pc := pacer{start: now(), interval: int64(time.Second) / roamRate}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	caughtUp := r.caughtUp
	hardStop := until.Add(time.Minute)
	for joined != nil || caughtUp != nil || time.Now().Before(until) {
		if time.Now().After(hardStop) {
			return fmt.Errorf("roamer not caught up a minute after the run: at seq %d of %d", r.streamNext.Load(), pub.count)
		}
		for n := pc.due(now()); n > 0; n-- {
			due := pc.dueAt(pc.sent)
			ph.genLag.Record(now() - due)
			if err := r.publish(r.next(), due, true); err != nil {
				return err
			}
			pc.sent++
		}
		timer.Reset(time.Duration(pc.dueAt(pc.sent) - now()))
		select {
		case <-timer.C:
		case err := <-joined:
			if err != nil {
				return err
			}
			joined = nil
		case <-caughtUp:
			caughtUp = nil
		}
	}
	ph.catchupNs = r.catchAt.Load() - catch0
	ph.epsNs = ph.catchupNs
	ph.epsCount = r.catchCorrect.Load() - correct0
	if err := r.drain(); err != nil {
		return err
	}
	// The roamer has the whole stream once it has the last publication;
	// the oracle checks the stream after the consumer has stopped.
	ph.stream, ph.streamFirst, ph.streamLast = roamer.stream, first, pub.count
	deadline := time.Now().Add(stallTimeout)
	for r.streamNext.Load() <= ph.streamLast && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return nil
}

// pacer releases open-loop publications on a fixed schedule: the i-th
// is due at start + i*interval. On each wake the loop releases every
// publication already due, so a late wake-up delays publications but
// never drops or spreads them, and their latency counts the delay.
type pacer struct {
	start, interval, sent int64
}

// due is the number of publications due by t and not yet released.
func (p *pacer) due(t int64) int64 {
	if t < p.start {
		return 0
	}
	return (t-p.start)/p.interval + 1 - p.sent
}

func (p *pacer) dueAt(i int64) int64 { return p.start + i*p.interval }
