package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"

	"github.com/amuse/smc/internal/bench"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/policy"
	"github.com/amuse/smc/internal/wire"
)

// inputs is the pool of publications a workload cycles through, made
// from the seed before the cell exists, with the reference recipients
// of each one worked out by the benchmark itself: every installed
// filter is evaluated with Filter.Matches, and every publish action of
// an obligation whose condition holds adds the recipients of the event
// that action derives. Durable members are left out; their reference
// is a whole stream (see stream).
type inputs struct {
	events []*event.Event
	pub    []int // publisher index of each event
	want   []mask
	fp     []uint64

	obIndex map[string]int // obligation name → index
	derived map[[2]int]int // (member, obligation) → recipient channel
}

// newInputs fixes the reference for events published by pubOf.
func newInputs(sp *spec, events []*event.Event, pubOf []int) (*inputs, error) {
	in := &inputs{events: events, pub: pubOf, obIndex: map[string]int{}, derived: map[[2]int]int{}}
	var obs []*policy.Obligation
	if sp.policy != "" {
		f, err := policy.Parse(sp.policy)
		if err != nil {
			return nil, fmt.Errorf("workload policy: %w", err)
		}
		obs = f.Obligations
	}
	live := func(m memberSpec) bool { return m.durable == "" }

	// Recipient channels: one per member, then one per (member,
	// obligation) pair whose derived event the member's filters match.
	next := len(sp.members)
	pages := make([][]int, len(obs)) // obligation → members receiving its event
	for k, ob := range obs {
		in.obIndex[ob.Name] = k
		derived := derivedEvent(ob)
		if derived == nil {
			continue
		}
		for j, m := range sp.members {
			if live(m) && matchesAny(m.filters, derived) {
				in.derived[[2]int{j, k}] = next
				pages[k] = append(pages[k], next)
				next++
			}
		}
	}
	if next > 64*maskWords {
		return nil, fmt.Errorf("workload has %d recipient channels, the oracle tracks %d", next, 64*maskWords)
	}

	in.want = make([]mask, len(events))
	in.fp = make([]uint64, len(events))
	for i, e := range events {
		for j, m := range sp.members {
			if live(m) && matchesAny(m.filters, e) {
				in.want[i].set(j)
			}
		}
		for k, ob := range obs {
			if ob.On.Matches(e) && (ob.When == nil || ob.When.Matches(e)) {
				for _, bit := range pages[k] {
					in.want[i].set(bit)
				}
			}
		}
		in.fp[i] = fingerprint(e)
	}
	return in, nil
}

// derivedEvent is the event an obligation's publish action emits, with
// the correlation attributes the policy engine adds; nil when the
// obligation publishes nothing. Obligations here have at most one
// publish action.
func derivedEvent(ob *policy.Obligation) *event.Event {
	for _, a := range ob.Actions {
		if a.Kind != policy.ActionPublish {
			continue
		}
		e := event.New()
		for _, asg := range a.Attrs {
			e.Set(asg.Name, asg.Value)
		}
		return e.SetStr("policy", ob.Name).SetInt("trigger-sender", 0).SetInt("trigger-seq", 0)
	}
	return nil
}

func matchesAny(fs []*event.Filter, e *event.Event) bool {
	for _, f := range fs {
		if f.Matches(e) {
			return true
		}
	}
	return false
}

var fpSeed = maphash.MakeSeed()

// fingerprint hashes an event's attributes: the content check on every
// delivery. Sender, Seq and Stamp are per-publish metadata, not content.
func fingerprint(e *event.Event) uint64 {
	var h maphash.Hash
	h.SetSeed(fpSeed)
	var num [8]byte
	putNum := func(u uint64) {
		for i := range num {
			num[i] = byte(u >> (8 * i))
		}
		h.Write(num[:])
	}
	for i, n := 0, e.Len(); i < n; i++ {
		name, v := e.At(i)
		h.WriteString(name)
		switch v.Type() {
		case event.TypeInt:
			x, _ := v.Int()
			putNum(uint64(x))
		case event.TypeFloat:
			x, _ := v.Float()
			putNum(math.Float64bits(x))
		case event.TypeString:
			s, _ := v.Str()
			h.WriteString(s)
		case event.TypeBool:
			b, _ := v.Bool()
			if b {
				putNum(1)
			} else {
				putNum(0)
			}
		case event.TypeBytes:
			b, _ := v.BytesRef()
			h.Write(b)
		}
	}
	return h.Sum64()
}

// readings makes n "reading" events whose wire encoding is exactly size
// bytes, padded with seeded random payload bytes.
func readings(seed int64, n, size int) ([]*event.Event, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*event.Event, n)
	for i := range out {
		e := event.NewTyped("reading").SetInt("n", int64(i))
		pad := size - wire.EventSize(e)
		for ; pad >= 0; pad-- {
			e.SetBytes("p", make([]byte, pad))
			if wire.EventSize(e) == size {
				break
			}
		}
		if pad < 0 {
			return nil, fmt.Errorf("no %d-byte reading event", size)
		}
		p := make([]byte, pad)
		rng.Read(p)
		e.SetBytes("p", p)
		out[i] = e
	}
	return out, nil
}

// Ward layout: bedside hubs publish for their patients; every patient
// has a bedside monitor, nurse stations each watch a block of
// patients, one dashboard watches the ward.
const (
	wardPatients    = 48
	wardHubs        = 4
	wardStations    = 8
	patientsPerHub  = wardPatients / wardHubs
	patientsPerDesk = wardPatients / wardStations
)

// wardPolicy: obligations react to severity-3 alarms (two derive a page
// for the dashboard), and authorisation rules the authoriser evaluates
// on every publish without refusing the ward's own traffic.
const wardPolicy = `
obligation page-critical {
  on type = "alarm" && severity >= 3
  do publish(type = "page", level = 1)
}
obligation page-hypoxia {
  on type = "alarm" && severity >= 3
  when source = "spo2"
  do publish(type = "page", level = 2), log("hypoxia alarm")
}
obligation audit-critical {
  on type = "alarm" && severity >= 3
  do log("critical alarm")
}
authorization members-publish-vitals {
  effect allow
  subject "bench-member"
  action publish
  target type = "reading"
}
authorization no-member-actuation {
  effect deny
  subject "*"
  action publish
  target type = "actuate"
}
`

// wardMembers lists the ward's members, hubs (the publishers) first.
// The filters total about 500.
func wardMembers() []memberSpec {
	var ms []memberSpec
	for h := 0; h < wardHubs; h++ {
		ms = append(ms, memberSpec{name: fmt.Sprintf("hub-%d", h), publishes: true})
	}
	patient := func(p int) event.Value { return event.Int(int64(p)) }
	for p := 0; p < wardPatients; p++ {
		ms = append(ms, memberSpec{name: fmt.Sprintf("monitor-%d", p), filters: []*event.Filter{
			event.NewFilter().WhereType("reading").Where("patient", event.OpEq, patient(p)),
			event.NewFilter().WhereType("alarm").Where("patient", event.OpEq, patient(p)),
			event.NewFilter().WhereType("census").Where("patient", event.OpEq, patient(p)),
			event.NewFilter().WhereType("control").Where("target", event.OpEq, event.Str("monitors")),
		}})
	}
	for s := 0; s < wardStations; s++ {
		var fs []*event.Filter
		for p := s * patientsPerDesk; p < (s+1)*patientsPerDesk; p++ {
			fs = append(fs,
				event.NewFilter().WhereType("alarm").Where("patient", event.OpEq, patient(p)).
					Where("severity", event.OpGe, event.Int(2)),
				event.NewFilter().WhereType("reading").Where("patient", event.OpEq, patient(p)).
					Where("kind", event.OpEq, event.Str("heart-rate")).Where("value", event.OpGt, event.Float(120)),
				event.NewFilter().WhereType("reading").Where("patient", event.OpEq, patient(p)).
					Where("kind", event.OpEq, event.Str("spo2")).Where("value", event.OpLt, event.Float(92)),
				event.NewFilter().WhereType("reading").Where("patient", event.OpEq, patient(p)).
					Where("kind", event.OpEq, event.Str("temperature")).Where("value", event.OpGt, event.Float(38)),
				event.NewFilter().WhereType("census").Where("patient", event.OpEq, patient(p)),
			)
		}
		fs = append(fs, event.NewFilter().WhereType("control").Where("target", event.OpEq, event.Str("stations")))
		ms = append(ms, memberSpec{name: fmt.Sprintf("station-%d", s), filters: fs})
	}
	dash := []*event.Filter{
		event.NewFilter().WhereType("alarm").Where("severity", event.OpGe, event.Int(2)),
		event.NewFilter().WhereType("page"),
		event.NewFilter().WhereType("census"),
		event.NewFilter().WhereType("control"),
	}
	for p := 0; p < wardPatients; p++ {
		dash = append(dash, event.NewFilter().WhereType("reading").Where("patient", event.OpEq, patient(p)).
			Where("kind", event.OpEq, event.Str("bp-systolic")).Where("value", event.OpGt, event.Float(150)))
	}
	return append(ms, memberSpec{name: "dashboard", filters: dash})
}

// wardEvents makes n ward events in bench.DefaultMix proportions:
// vital-sign readings, alarms, census (admission/discharge — the
// membership share) and control messages, each published by the hub
// of its patient.
func wardEvents(seed int64, n int) ([]*event.Event, []int) {
	rng := rand.New(rand.NewSource(seed))
	mix := bench.DefaultMix()
	total := mix.Readings + mix.Alarms + mix.Membership + mix.Control
	kinds := []struct {
		kind         string
		base, spread float64
	}{
		{"heart-rate", 80, 50}, {"spo2", 95, 5}, {"temperature", 37, 1.5}, {"bp-systolic", 125, 35},
	}
	sources := []string{"hr", "spo2", "temp", "bp"}
	events := make([]*event.Event, n)
	pubOf := make([]int, n)
	for i := range events {
		p := rng.Intn(wardPatients)
		var e *event.Event
		switch pick := rng.Intn(total); {
		case pick < mix.Readings:
			k := kinds[rng.Intn(len(kinds))]
			e = event.NewTyped("reading").SetStr("kind", k.kind).
				SetFloat("value", k.base+(rng.Float64()*2-1)*k.spread)
		case pick < mix.Readings+mix.Alarms:
			e = event.NewTyped("alarm").SetStr("source", sources[rng.Intn(len(sources))]).
				SetInt("severity", int64(1+rng.Intn(3)))
		case pick < mix.Readings+mix.Alarms+mix.Membership:
			action := "admit"
			if rng.Intn(2) == 0 {
				action = "discharge"
			}
			e = event.NewTyped("census").SetStr("action", action)
		default:
			target := "monitors"
			if rng.Intn(2) == 0 {
				target = "stations"
			}
			e = event.NewTyped("control").SetStr("target", target).SetStr("action", "set-threshold")
		}
		events[i] = e.SetInt("patient", int64(p)).SetInt("n", int64(i))
		pubOf[i] = p / patientsPerHub
	}
	return events, pubOf
}
