package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/amuse/smc/internal/ident"
)

// violation is one way a delivery can be wrong.
type violation int

const (
	vNone violation = iota
	vWrongRecipient
	vDuplicate
	vReorder
	vCorrupt
	vGap
	nViolations
)

var violationNames = [nViolations]string{"ok", "wrong-recipient", "duplicate", "reorder", "corrupt", "gap"}

// maskWords bounds recipient channels at 128: one per member plus one
// per (member, obligation) pair that can receive a policy-derived event.
const maskWords = 2

// mask is a set of recipient channels.
type mask [maskWords]uint64

func (m *mask) set(bit int) { m[bit/64] |= 1 << (bit % 64) }

func (m mask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// slot tracks one outstanding publication. orig is the reference
// recipient set; want is what is still to arrive; pending counts want
// plus the publisher's completion, so the event is complete — and its
// slot reusable — once every recipient has it and the publish settled.
type slot struct {
	seq     atomic.Uint64
	t0      atomic.Int64
	fp      atomic.Uint64
	orig    [maskWords]atomic.Uint64
	want    [maskWords]atomic.Uint64
	pending atomic.Int32
}

// Oracle checks every delivery against the reference recipients the
// benchmark computed itself. Each expected delivery ends as correct,
// missing, reordered or corrupt; duplicates and deliveries to a wrong
// recipient are extra. All of them except correct count as failed.
type Oracle struct {
	rings    [][]slot // per publisher, indexed by seq & ringMask
	ringMask uint64
	done     func() // called once per completed publication

	expected atomic.Uint64
	correct  atomic.Uint64
	missing  atomic.Uint64
	refused  atomic.Uint64
	viol     [nViolations]atomic.Uint64
}

// NewOracle tracks pubs publishers with up to ring (a power of two)
// publications outstanding each.
func NewOracle(pubs, ring int, done func()) *Oracle {
	o := &Oracle{rings: make([][]slot, pubs), ringMask: uint64(ring - 1), done: done}
	for i := range o.rings {
		o.rings[i] = make([]slot, ring)
	}
	return o
}

func (o *Oracle) slot(pub int, seq uint64) *slot { return &o.rings[pub][seq&o.ringMask] }

// Expect registers publication seq of publisher pub, with content
// fingerprint fp, before it is published.
func (o *Oracle) Expect(pub int, seq, fp uint64, want mask) error {
	s := o.slot(pub, seq)
	if s.pending.Load() != 0 {
		return fmt.Errorf("oracle: publisher %d seq %d overran the ring (seq %d still outstanding)", pub, seq, s.seq.Load())
	}
	s.t0.Store(0)
	s.fp.Store(fp)
	for w := range want {
		s.orig[w].Store(want[w])
		s.want[w].Store(want[w])
	}
	s.pending.Store(int32(want.count()) + 1)
	s.seq.Store(seq)
	o.expected.Add(uint64(want.count()))
	return nil
}

// Stamp times publication seq from t0; untimed publications give no
// latency sample.
func (o *Oracle) Stamp(pub int, seq uint64, t0 int64) { o.slot(pub, seq).t0.Store(t0) }

// Acked settles the publish of seq. A refused publish reaches nobody:
// its outstanding recipients are counted missing at once.
func (o *Oracle) Acked(pub int, seq uint64, err error) {
	s := o.slot(pub, seq)
	n := int32(1)
	if err != nil {
		o.refused.Add(1)
		for w := range s.want {
			lost := bits.OnesCount64(s.want[w].Swap(0))
			o.missing.Add(uint64(lost))
			n += int32(lost)
		}
	}
	o.release(s, n)
}

func (o *Oracle) release(s *slot, n int32) {
	if s.pending.Add(-n) == 0 && o.done != nil {
		o.done()
	}
}

// Deliver checks one delivery of publication (pub, seq) on recipient
// channel bit. inOrder is the recipient's per-publisher FIFO verdict;
// checkFP is false for policy-derived events, whose content the
// benchmark does not model. It returns the latency from the stamped
// publish time (timed=false when unstamped) and the violation found.
func (o *Oracle) Deliver(bit, pub int, seq, fp uint64, checkFP bool, now int64, inOrder bool) (lat int64, timed bool, v violation) {
	s := o.slot(pub, seq)
	w, b := bit/64, uint64(1)<<(bit%64)
	if s.seq.Load() != seq {
		// The publication already completed and its slot moved on, or
		// was never published: either way this delivery is extra.
		return 0, false, o.flag(vDuplicate)
	}
	if s.orig[w].Load()&b == 0 {
		return 0, false, o.flag(vWrongRecipient)
	}
	for {
		cur := s.want[w].Load()
		if cur&b == 0 {
			return 0, false, o.flag(vDuplicate)
		}
		if s.want[w].CompareAndSwap(cur, cur&^b) {
			break
		}
	}
	switch {
	case !inOrder:
		v = o.flag(vReorder)
	case checkFP && s.fp.Load() != fp:
		v = o.flag(vCorrupt)
	default:
		o.correct.Add(1)
	}
	if t0 := s.t0.Load(); t0 > 0 {
		lat, timed = now-t0, true
	}
	o.release(s, 1)
	return lat, timed, v
}

func (o *Oracle) flag(v violation) violation {
	o.viol[v].Add(1)
	return v
}

// Finish counts every delivery still outstanding as missing.
func (o *Oracle) Finish() {
	for _, ring := range o.rings {
		for i := range ring {
			s := &ring[i]
			for w := range s.want {
				o.missing.Add(uint64(bits.OnesCount64(s.want[w].Swap(0))))
			}
		}
	}
}

// Failed counts every expected delivery that did not arrive correctly,
// plus every extra delivery.
func (o *Oracle) Failed() uint64 {
	extra := o.viol[vDuplicate].Load() + o.viol[vWrongRecipient].Load()
	return o.expected.Load() - o.correct.Load() + extra
}

// Summary names the non-zero failure counts.
func (o *Oracle) Summary() string {
	s := fmt.Sprintf("expected=%d correct=%d missing=%d refused=%d",
		o.expected.Load(), o.correct.Load(), o.missing.Load(), o.refused.Load())
	for v := vWrongRecipient; v < nViolations; v++ {
		if n := o.viol[v].Load(); n > 0 {
			s += fmt.Sprintf(" %s=%d", violationNames[v], n)
		}
	}
	return s
}

// stream is the reference for a durable consumer: it must receive
// every publication of one publisher from seq next on exactly once, in
// order, with rising log cursors. Owned by the consumer's goroutine.
type stream struct {
	next   uint64
	cursor uint64
	got    uint64
}

// StreamDeliver checks one durable delivery.
func (o *Oracle) StreamDeliver(s *stream, seq, cursor uint64) violation {
	if seq < s.next || cursor <= s.cursor {
		return o.flag(vDuplicate)
	}
	v := vNone
	if seq > s.next {
		v = o.flag(vGap) // the skipped publications count as missing
	}
	s.got++
	o.correct.Add(1)
	s.next, s.cursor = seq+1, cursor
	return v
}

// FinishStream expects the stream to have reached seq last.
func (o *Oracle) FinishStream(s *stream, first, last uint64) {
	n := last - first + 1
	o.expected.Add(n)
	if s.got < n {
		o.missing.Add(n - s.got)
	}
}

// fifo is one recipient's per-publisher ordering check (§II-C). Owned
// by the recipient's consumer goroutine.
type fifo map[ident.ID]uint64

// inOrder reports whether seq from sender arrives after every earlier
// delivery from that sender.
func (f fifo) inOrder(sender ident.ID, seq uint64) bool {
	last := f[sender]
	if seq <= last {
		return false
	}
	f[sender] = seq
	return true
}
