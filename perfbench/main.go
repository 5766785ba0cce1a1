// Command perfbench is the repository's benchmark. It starts a real
// self-managed cell, joins its members through discovery, drives one
// named workload through the public entry points, checks every delivery
// against a reference the benchmark computes itself, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics of an
// untraced and a traced run. The last line of standard output is the
// machine-readable result; the lines before it are a table of every
// metric with its unit and sample count.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/store"
)

const (
	// setupRuns cells are set up per untraced run; setup_s is their median.
	setupRuns = 15
	// sampleEvery: the traced run samples one publication in this many.
	sampleEvery = 16
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: rt-udp, stream-udp, ward-mem or roam-durable")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of an untraced and a traced run")
	out := flag.String("out", "", "directory for the full report and the span dump (none when empty)")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	rep := &report{Host: hostInfo(), Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	if rep.Trace {
		err = traceRun(w, rep, d, *out)
	} else {
		err = plainRun(w, rep, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write report:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: deliveries failed the oracle:", strings.Join(rep.Oracle, "; "))
		return 1
	}
	return 0
}

// phase is one measured run of a workload on one rig.
type phase struct {
	// Set by the workload's drive: the interval delivered_eps covers
	// and the correct deliveries in it, and for the roaming workload
	// its catch-up, pacer lateness and durable reference stream.
	epsNs       int64
	epsCount    uint64
	catchupNs   int64
	genLag      Hist
	stream      *stream
	streamFirst uint64
	streamLast  uint64

	// Correct deliveries in slices: win over the measured load, rtWin
	// over the part with one publication in flight (the same as win
	// for a workload whose window is one).
	win, rtWin *windows
	u0, u1     usage
	delivered  uint64 // correct deliveries
	polls      uint64 // sampler polls

	lagPeak uint64
	cnt     counters
	joinNs  []int64

	expected, failed uint64
	summary          string

	// Traced runs only.
	stages                [nStages]Hist
	spans, badSpans       int
	sendCalls, batchCalls uint64
	batchDgrams           uint64
	sendNs                int64
}

// counters are the program's own Stats, summed over the cell.
type counters struct {
	published, admitDropped             uint64
	chanSent, chanRetx                  uint64
	enqueued, droppedOldest, redelivers uint64
	proxies                             uint64
	received, handled                   uint64
}

func (r *rig) counters() counters {
	var c counters
	bs := r.cell.Bus.Stats()
	c.published, c.admitDropped = bs.Published, bs.Dropped
	ch, _ := r.cell.ChannelStats()
	c.chanSent, c.chanRetx = ch.Sent, ch.Retransmits+ch.FastRetransmits
	for _, m := range r.members {
		if m.dev == nil {
			continue
		}
		if px := r.cell.Bus.MemberProxy(m.dev.Client.ID()); px != nil {
			st := px.Stats()
			c.enqueued += st.Enqueued
			c.droppedOldest += st.DroppedOldest
			c.redelivers += st.Redeliveries
			c.proxies++
		}
	}
	return c
}

// runPhase drives w on r for d, then shuts r down and settles the oracle.
func runPhase(w *workload, r *rig, d time.Duration) (*phase, error) {
	ph := &phase{}
	if r.tr != nil {
		r.tr.sendCalls.Store(0)
		r.tr.batchCalls.Store(0)
		r.tr.batchDgram.Store(0)
		r.tr.sendNs.Store(0)
	}
	correct0 := r.oracle.correct.Load()
	runtime.GC() // earlier set-ups' garbage is not this phase's heap
	ph.u0 = takeUsage()
	s := startSampler(r.cell, &r.win)
	err := w.drive(r, d, ph)
	s.finish()
	ph.u1 = takeUsage()
	ph.delivered = r.oracle.correct.Load() - correct0
	ph.polls, ph.lagPeak = s.polls, s.lagPeak
	ph.cnt = r.counters()
	if r.tr != nil {
		ph.sendCalls, ph.batchCalls = r.tr.sendCalls.Load(), r.tr.batchCalls.Load()
		ph.batchDgrams, ph.sendNs = r.tr.batchDgram.Load(), r.tr.sendNs.Load()
	}
	r.close()
	if err != nil {
		return nil, err
	}
	ph.joinNs = r.joinNs
	r.oracle.Finish()
	if ph.stream != nil {
		r.oracle.FinishStream(ph.stream, ph.streamFirst, ph.streamLast)
	}
	for _, m := range r.members {
		ph.cnt.handled += m.handled
		ph.cnt.received += m.received + m.dev.Client.Stats().EventsReceived
	}
	ph.expected, ph.failed, ph.summary = r.oracle.expected.Load(), r.oracle.Failed(), r.oracle.Summary()
	if r.tr != nil {
		ph.spans, ph.badSpans = r.tr.spans(w.closed, &ph.stages)
	}
	return ph, nil
}

func prepare(w *workload, seed int64) (*spec, *inputs, error) {
	sp := w.spec()
	in, err := w.inputs(sp, seed)
	return sp, in, err
}

// plainRun sets a cell up setupRuns times and measures the last one.
func plainRun(w *workload, rep *report, d time.Duration) error {
	sp, in, err := prepare(w, rep.Seed)
	if err != nil {
		return err
	}
	var setups []float64
	var r *rig
	for k := 0; k < setupRuns; k++ {
		if r != nil {
			r.close()
		}
		if r, err = newRig(sp, in, nil); err != nil {
			return err
		}
		setups = append(setups, float64(r.setupNs)/1e9)
	}
	ph, err := runPhase(w, r, d)
	if err != nil {
		return err
	}
	rep.addOracle("", ph)
	slices := uint64(len(ph.win.count))
	rt50, nrt50 := ph.rtWin.latency(0.50, minP50)
	rep.add("setup_s", median(setups), "s", uint64(len(setups)))
	rep.add("rt_p50_us", rt50/1e3, "us", nrt50)
	rep.add("cpu_us_per_event", ph.win.cpuPerEvent(), "us", ph.delivered)
	rep.add("peak_heap_mb", ph.win.heapMB(), "MB", slices)
	rep.Gated = len(rep.Metrics)
	for _, m := range rep.Metrics {
		if !(m.Value > 0) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s not measured (%v from %d samples)", m.Name, m.Value, m.Samples)
		}
	}
	// Reported for reading, not gated: on a host whose CPU is shared
	// (steal time) they follow the host's load as much as the code's.
	rt99, nrt99 := ph.rtWin.latency(0.99, minP99)
	e50, ne50 := ph.win.latency(0.50, minP50)
	e99, ne99 := ph.win.latency(0.99, minP99)
	rep.add("rt_p99_us", rt99/1e3, "us", nrt99)
	rep.add("delivered_eps", headline(w, ph, "delivered_eps"), "1/s", ph.epsCount)
	rep.add("e2e_p50_ms", e50/1e6, "ms", ne50)
	rep.add("e2e_p99_ms", e99/1e6, "ms", ne99)
	rep.add("loss_frac", float64(ph.failed)/float64(ph.expected), "frac", ph.expected)
	if ph.catchupNs > 0 {
		rep.add("catchup_s", float64(ph.catchupNs)/1e9, "s", 1)
	}
	return nil
}

// Slices with fewer latency samples are left out of the median: p99
// needs ten samples beyond it.
const (
	minP50 = 100
	minP99 = 1000
)

// headline reads one end-to-end metric off a phase. delivered_eps is
// the median over slices for closed loops; for the roaming workload it
// covers the catch-up.
func headline(w *workload, ph *phase, name string) float64 {
	switch name {
	case "rt_p50_us":
		p50, _ := ph.rtWin.latency(0.5, minP50)
		return p50 / 1e3
	case "cpu_us_per_event":
		return ph.win.cpuPerEvent()
	case "catchup_s":
		return float64(ph.catchupNs) / 1e9
	default: // delivered_eps
		if w.closed {
			return ph.win.eps()
		}
		return float64(ph.epsCount) / (float64(ph.epsNs) / 1e9)
	}
}

// traceRun measures an untraced and a traced run, each for half the
// time, and reports per-layer metrics: spans and transport counts from
// the traced run, the program's counters from the untraced one.
func traceRun(w *workload, rep *report, d time.Duration, out string) error {
	sp, in, err := prepare(w, rep.Seed)
	if err != nil {
		return err
	}
	r, err := newRig(sp, in, nil)
	if err != nil {
		return err
	}
	u, err := runPhase(w, r, d/2)
	if err != nil {
		return err
	}
	tr := newTracer(sampleEvery)
	if r, err = newRig(sp, in, tr); err != nil {
		return err
	}
	t, err := runPhase(w, r, d/2)
	if err != nil {
		return err
	}
	rep.addOracle("untraced ", u)
	rep.addOracle("traced ", t)
	rep.Oracle = append(rep.Oracle, fmt.Sprintf("spans complete=%d not-partitioning=%d (sampled deliveries whose stage spans do not add up to publish→handler)", t.spans, t.badSpans))
	if t.badSpans > 0 {
		rep.Correct = false
		rep.Failed += uint64(t.badSpans)
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := tr.dump(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.csv", w.name, rep.Seed))); err != nil {
			return fmt.Errorf("span dump: %w", err)
		}
	}

	span := func(name string, st int) {
		rep.add(name, t.stages[st].Quantile(0.5)/1e3, "us", t.stages[st].Count())
	}
	span("client.publish_us", stPublish)
	span("reliable.uplink_us", stUplink)
	span("policy.authorize_us", stAuthorize)
	span("bus.dispatch_us", stDispatch)
	span("reliable.downlink_us", stDownlink)
	span("reliable.ack_us", stAck)
	rep.add("transport.send_us", ratio(float64(t.sendNs)/1e3, float64(t.sendCalls)), "us", t.sendCalls)
	rep.add("transport.calls_per_event", ratio(float64(t.sendCalls), float64(t.delivered)), "count", t.delivered)
	rep.add("transport.dgrams_per_call", ratio(float64(t.batchDgrams), float64(t.batchCalls)), "count", t.batchCalls)
	rep.add("reliable.retx_per_kpkt", 1000*ratio(float64(u.cnt.chanRetx), float64(u.cnt.chanSent)), "count", u.cnt.chanSent)
	rep.add("proxy.drop_oldest_frac", ratio(float64(u.cnt.droppedOldest), float64(u.cnt.enqueued)), "frac", u.cnt.enqueued)
	rep.add("proxy.redeliveries", float64(u.cnt.redelivers), "count", u.cnt.proxies)
	rep.add("bus.admit_drop_frac", ratio(float64(u.cnt.admitDropped), float64(u.cnt.published)), "frac", u.cnt.published)
	rep.add("client.inbox_drop_frac", ratio(float64(u.cnt.received-u.cnt.handled), float64(u.cnt.received)), "frac", u.cnt.received)

	appends := len(in.events)
	if sp.durable {
		appends = roamGap // the walk covers the roamer's gap
	}
	mi, err := micro(sp, in, appends)
	if err != nil {
		return err
	}
	rep.add("matcher.match_us", mi.matchUs, "us", mi.matches)
	rep.add("matcher.targets_per_event", mi.targets, "count", mi.matches)
	rep.add("store.append_us", mi.appendUs, "us", uint64(appends))
	rep.add("store.replay_eps", mi.replayEps, "1/s", uint64(appends))
	rep.add("store.lag_peak", float64(u.lagPeak), "count", u.polls)

	var joinMs []float64
	for _, j := range append(u.joinNs, t.joinNs...) {
		joinMs = append(joinMs, float64(j)/1e6)
	}
	rep.add("discovery.join_ms", median(joinMs), "ms", uint64(len(joinMs)))
	rep.add("runtime.alloc_b_per_event", ratio(float64(u.u1.alloc-u.u0.alloc), float64(u.delivered)), "B", u.delivered)
	rep.add("runtime.gc_per_kevent", 1000*ratio(float64(u.u1.gcs-u.u0.gcs), float64(u.delivered)), "count", u.delivered)
	rep.add("gen.lag_p99_ms", u.genLag.Quantile(0.99)/1e6, "ms", u.genLag.Count())
	hu, ht := headline(w, u, w.headline), headline(w, t, w.headline)
	rep.add("trace.overhead_frac", (ht-hu)/hu, "frac", 2)
	return nil
}

// microResult holds the layer costs measured by calling a layer directly.
type microResult struct {
	matchUs, targets    float64
	matches             uint64
	appendUs, replayEps float64
}

// micro times the matcher on the workload's own filters and events, and
// a fresh durable log (the cell's configuration) appending n of the
// workload's events and walking them back.
func micro(sp *spec, in *inputs, n int) (microResult, error) {
	var res microResult
	m, err := matcher.New(matcher.KindFast)
	if err != nil {
		return res, err
	}
	for j, ms := range sp.members {
		if ms.durable != "" {
			continue // the bus keeps durable filters out of the matcher
		}
		for _, f := range ms.filters {
			if err := m.Subscribe(ident.New(uint64(j+1)), f); err != nil {
				return res, err
			}
		}
	}
	var dst []ident.ID
	var targets int
	const matches = 200_000
	start := time.Now()
	for i := 0; i < matches; i++ {
		dst = m.MatchAppend(in.events[i%len(in.events)], dst[:0])
		targets += len(dst)
	}
	res.matchUs = float64(time.Since(start).Nanoseconds()) / 1e3 / matches
	res.targets = float64(targets) / matches
	res.matches = matches

	log, err := store.Open(store.Config{})
	if err != nil {
		return res, err
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		log.Append(in.events[i%len(in.events)], 0, false)
	}
	res.appendUs = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	start = time.Now()
	walked := 0
	for c := log.OldestCursor(); ; walked++ {
		rec, ok := log.Next(c)
		if !ok {
			break
		}
		c = rec.Cursor + 1
		rec.Release()
	}
	res.replayEps = float64(walked) / time.Since(start).Seconds()
	if err := log.Close(); err != nil {
		return res, err
	}
	if walked != n {
		return res, fmt.Errorf("store walk returned %d of %d appended events", walked, n)
	}
	return res, nil
}

// ratio is a/b, 0 when there is nothing to divide by: a per-layer count
// the workload does not exercise.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var nan = math.NaN()

func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// host is the machine and toolchain a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples uint64  `json:"samples"`
}

// report is everything one run measured, with its inputs.
type report struct {
	Host     host     `json:"host"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Correct  bool     `json:"correct"`
	Attempt  uint64   `json:"attempted"`
	Failed   uint64   `json:"failed"`
	Oracle   []string `json:"oracle"`
	Metrics  []metric `json:"metrics"`
	// Gated is how many leading Metrics go into the result line; zero
	// means all of them.
	Gated int `json:"-"`
}

// add records a metric; a value that could not be measured reads 0.
func (rep *report) add(name string, v float64, unit string, samples uint64) {
	v = orZero(v)
	rep.Metrics = append(rep.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

func (rep *report) addOracle(label string, ph *phase) {
	if len(rep.Oracle) == 0 {
		rep.Correct = true
	}
	rep.Attempt += ph.expected
	rep.Failed += ph.failed
	rep.Correct = rep.Correct && ph.failed == 0
	rep.Oracle = append(rep.Oracle, label+ph.summary)
}

// result is the machine-readable last line.
func (rep *report) result() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := rep.Metrics
	if rep.Gated > 0 {
		ms = ms[:rep.Gated]
	}
	out := map[string]value{}
	for _, m := range ms {
		out[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempt, rep.Failed, out}
}

func (rep *report) print(f *os.File) {
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", rep.Host.CPU, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go)
	for _, o := range rep.Oracle {
		fmt.Fprintf(w, "# oracle %s\n", o)
	}
	fmt.Fprintf(w, "%-28s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%-28s %16.6g %-6s %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	w.Flush()
}

func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
