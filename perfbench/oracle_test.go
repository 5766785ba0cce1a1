package main

import (
	"errors"
	"testing"

	"github.com/amuse/smc/internal/ident"
)

// delivery is one line of a synthetic delivery log: recipient channel
// (also the recipient's identity for its FIFO check), publication and
// content fingerprint.
type delivery struct {
	rcpt int
	pub  int
	seq  uint64
	fp   uint64
}

// replay feeds a synthetic log through the oracle: publications 1..3 of
// two publishers, each for recipients 0 and 1 (seq 3 of publisher 1 only
// for recipient 1), all acked.
func replay(t *testing.T, log []delivery) *Oracle {
	t.Helper()
	o := NewOracle(2, 16, nil)
	for pub := 0; pub < 2; pub++ {
		for seq := uint64(1); seq <= 3; seq++ {
			var want mask
			if !(pub == 1 && seq == 3) {
				want.set(0)
			}
			want.set(1)
			if err := o.Expect(pub, seq, 100*uint64(pub)+seq, want); err != nil {
				t.Fatal(err)
			}
			o.Stamp(pub, seq, 1)
		}
	}
	orders := []fifo{{}, {}}
	for _, d := range log {
		sender := ident.New(uint64(d.pub + 1))
		o.Deliver(d.rcpt, d.pub, d.seq, d.fp, true, 10, orders[d.rcpt].inOrder(sender, d.seq))
	}
	for pub := 0; pub < 2; pub++ {
		for seq := uint64(1); seq <= 3; seq++ {
			o.Acked(pub, seq, nil)
		}
	}
	o.Finish()
	return o
}

// cleanLog delivers everything once, in order.
func cleanLog() []delivery {
	var log []delivery
	for pub := 0; pub < 2; pub++ {
		for seq := uint64(1); seq <= 3; seq++ {
			for rcpt := 0; rcpt < 2; rcpt++ {
				if rcpt == 0 && pub == 1 && seq == 3 {
					continue
				}
				log = append(log, delivery{rcpt, pub, seq, 100*uint64(pub) + seq})
			}
		}
	}
	return log
}

func TestOracleCleanLog(t *testing.T) {
	o := replay(t, cleanLog())
	if f := o.Failed(); f != 0 || o.correct.Load() != 11 || o.expected.Load() != 11 {
		t.Fatalf("clean log: %s, failed=%d", o.Summary(), f)
	}
}

func TestOracleFlagsInjectedFaults(t *testing.T) {
	without := func(log []delivery, i int) []delivery {
		return append(append([]delivery(nil), log[:i]...), log[i+1:]...)
	}
	log := cleanLog()
	cases := []struct {
		name  string
		log   []delivery
		check func(o *Oracle) bool
	}{
		{"drop", without(log, 4), func(o *Oracle) bool { return o.missing.Load() == 1 }},
		{"duplicate", append(append([]delivery(nil), log...), log[2]), func(o *Oracle) bool {
			return o.viol[vDuplicate].Load() == 1
		}},
		{"reorder", func() []delivery {
			l := append([]delivery(nil), log...)
			l[0], l[2] = l[2], l[0] // recipient 0 gets publisher 0's seq 2 before seq 1
			return l
		}(), func(o *Oracle) bool { return o.viol[vReorder].Load() == 1 }},
		{"wrong recipient", append(append([]delivery(nil), log...), delivery{0, 1, 3, 103}), func(o *Oracle) bool {
			return o.viol[vWrongRecipient].Load() == 1
		}},
		{"corrupt", func() []delivery {
			l := append([]delivery(nil), log...)
			l[1].fp++
			return l
		}(), func(o *Oracle) bool { return o.viol[vCorrupt].Load() == 1 }},
	}
	for _, c := range cases {
		o := replay(t, c.log)
		if o.Failed() == 0 || !c.check(o) {
			t.Errorf("%s not flagged: %s, failed=%d", c.name, o.Summary(), o.Failed())
		}
	}
}

func TestOracleRefusedPublishCountsMissing(t *testing.T) {
	done := 0
	o := NewOracle(1, 4, func() { done++ })
	var want mask
	want.set(0)
	want.set(3)
	if err := o.Expect(0, 1, 0, want); err != nil {
		t.Fatal(err)
	}
	o.Acked(0, 1, errors.New("refused"))
	if o.missing.Load() != 2 || o.Failed() != 2 || done != 1 {
		t.Fatalf("refused publish: %s, completions=%d", o.Summary(), done)
	}
}

func TestOracleRingOverrun(t *testing.T) {
	o := NewOracle(1, 2, nil)
	var want mask
	want.set(0)
	if err := o.Expect(0, 1, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := o.Expect(0, 3, 0, want); err == nil {
		t.Fatal("seq 3 reused the slot of outstanding seq 1")
	}
}

func TestStreamFlagsGapAndDuplicate(t *testing.T) {
	o := NewOracle(0, 1, nil)
	s := &stream{next: 10}
	for _, d := range []struct{ seq, cursor uint64 }{{10, 100}, {11, 101}, {11, 101}, {13, 103}, {14, 104}} {
		o.StreamDeliver(s, d.seq, d.cursor)
	}
	o.FinishStream(s, 10, 14)
	if o.viol[vDuplicate].Load() != 1 || o.viol[vGap].Load() != 1 || o.missing.Load() != 1 || o.Failed() != 2 {
		t.Fatalf("stream: %s, failed=%d", o.Summary(), o.Failed())
	}
}

func TestPacerReleasesEveryDueEvent(t *testing.T) {
	p := pacer{start: 1000, interval: 500}
	if n := p.due(999); n != 0 {
		t.Fatalf("due before start: %d", n)
	}
	if n := p.due(1000); n != 1 {
		t.Fatalf("due at start: %d", n)
	}
	p.sent = 1
	// A wake 1.2 intervals after the first release lets out both
	// publications due by then, each keeping its own due time.
	if n := p.due(2200); n != 2 {
		t.Fatalf("due after a late wake: %d, want 2", n)
	}
	if at := p.dueAt(2); at != 2000 {
		t.Fatalf("dueAt(2)=%d", at)
	}
}
