package matcher

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// FastMatcher implements Siena's fast forwarding counting algorithm
// (Carzaniga & Wolf, SIGCOMM 2003) directly over the bus-native event
// types: per-attribute constraint indexes, a single pass over the
// event's attributes, and a counter per filter. A filter matches when
// its counter reaches its constraint count.
//
// The matcher is read-mostly — dispatch matches millions of events
// against a subscription set that changes at human/device timescales —
// so the read path is lock-free: Match loads an immutable index
// snapshot through an atomic pointer and runs without taking any
// mutex, exactly like the attribute-name intern table. Shard workers
// on different cores therefore never serialise on a shared read lock
// or bounce its cache line. Subscribe/Unsubscribe build the next
// snapshot copy-on-write under a writer mutex and swap it in; the
// delta path clones only the per-attribute indexes the changed filter
// actually names (plus flat memcpy of the dense slot table), so
// subscription churn does not rebuild the whole index.
type FastMatcher struct {
	// idx is the immutable index snapshot the lock-free read path
	// loads. Everything reachable from it is frozen: writers replace
	// the pointer, never mutate through it.
	idx atomic.Pointer[fastIndex]

	// mu serialises writers only; the read path never touches it.
	mu sync.Mutex
	// subs holds one node per installed (subscriber, filter) pair
	// (writer-side bookkeeping for idempotence and Unsubscribe).
	subs map[ident.ID][]*fastFilter
	// free lists recyclable dense slots (writer-side).
	free []int

	// scratch lends per-match counting state to callers that do not
	// supply their own Scratch.
	scratch scratchCache
}

var _ Matcher = (*FastMatcher)(nil)
var _ ScratchMatcher = (*FastMatcher)(nil)

// fastIndex is one immutable snapshot of the matcher's index. A
// snapshot is built by a writer, published via FastMatcher.idx, and
// never mutated afterwards; readers may hold it across an arbitrary
// window (they only ever see a consistent subscription set).
type fastIndex struct {
	// index maps attribute name to the per-operator constraint index.
	index map[string]*attrIndex
	// dense assigns every installed filter a small integer slot so
	// that matching can count satisfied constraints in a flat array
	// instead of a map (the hot path of the counting algorithm).
	// Freed slots are nil until reused.
	dense []*fastFilter
	// empties lists installed filters with no constraints; they never
	// enter the attribute index (they match everything) and keeping
	// them separate spares Match a scan over every subscriber.
	empties []*fastFilter
	// count is the number of installed (subscriber, filter) pairs.
	count int
}

// emptyFastIndex is the snapshot of a matcher with no subscriptions.
var emptyFastIndex = &fastIndex{index: map[string]*attrIndex{}}

// fastFilter is one installed filter with its constraint count. It is
// immutable after construction, so snapshots share the nodes.
type fastFilter struct {
	sub    ident.ID
	filter *event.Filter
	need   int32
	idx    int
}

// constraintRef ties a constraint back to its filter. Immutable.
type constraintRef struct {
	c event.Constraint
	f *fastFilter
}

// attrIndex indexes the constraints that name one attribute, organised
// by operator class so that matching touches as few constraints as
// possible. Within a published snapshot an attrIndex is immutable;
// writers clone the (few) indexes a subscription delta touches.
type attrIndex struct {
	// eq maps a hashable value key to refs with that exact bound.
	eq map[valueKey][]*constraintRef
	// ordered holds <,<=,>,>= refs sorted by numeric bound (numeric
	// bounds only; non-numeric ordered constraints fall into linear).
	less    []orderedRef // OpLt, OpLe
	greater []orderedRef // OpGt, OpGe
	// linear holds everything without a sub-linear index: string
	// ops, Ne, exists, and non-numeric ordered constraints.
	linear []*constraintRef
	// exists holds OpExists refs (satisfied by presence alone).
	exists []*constraintRef
}

// clone deep-copies the attrIndex structure (the constraintRefs inside
// are immutable and shared between snapshots).
func (ai *attrIndex) clone() *attrIndex {
	c := &attrIndex{eq: make(map[valueKey][]*constraintRef, len(ai.eq))}
	for k, refs := range ai.eq {
		c.eq[k] = append([]*constraintRef(nil), refs...)
	}
	c.less = append([]orderedRef(nil), ai.less...)
	c.greater = append([]orderedRef(nil), ai.greater...)
	c.linear = append([]*constraintRef(nil), ai.linear...)
	c.exists = append([]*constraintRef(nil), ai.exists...)
	return c
}

// empty reports whether the index holds no constraints at all.
func (ai *attrIndex) empty() bool {
	return len(ai.eq) == 0 && len(ai.less) == 0 && len(ai.greater) == 0 &&
		len(ai.linear) == 0 && len(ai.exists) == 0
}

type orderedRef struct {
	bound float64
	incl  bool // bound satisfies the constraint (Le/Ge)
	ref   *constraintRef
}

// valueKey is a hashable projection of a Value for equality indexing.
type valueKey struct {
	t event.Type
	n float64 // numeric values keyed by magnitude (Int(1)==Float(1) for matching)
	s string
	b bool
}

func keyOf(v event.Value) (valueKey, bool) {
	switch v.Type() {
	case event.TypeInt:
		i, _ := v.Int()
		return valueKey{t: event.TypeInt, n: float64(i)}, true
	case event.TypeFloat:
		f, _ := v.Float()
		return valueKey{t: event.TypeFloat, n: f}, true
	case event.TypeString:
		s, _ := v.Str()
		return valueKey{t: event.TypeString, s: s}, true
	case event.TypeBool:
		b, _ := v.Bool()
		return valueKey{t: event.TypeBool, b: b}, true
	default:
		return valueKey{}, false // bytes: not hashable cheaply, use linear
	}
}

// probeKeys returns the equality-index keys an event value should
// probe: numeric values match both int- and float-keyed constraints of
// the same magnitude. The keys are returned by value (array + count)
// so the per-attribute probe never allocates.
func probeKeys(v event.Value) (keys [2]valueKey, n int) {
	switch v.Type() {
	case event.TypeInt:
		i, _ := v.Int()
		keys[0] = valueKey{t: event.TypeInt, n: float64(i)}
		keys[1] = valueKey{t: event.TypeFloat, n: float64(i)}
		return keys, 2
	case event.TypeFloat:
		f, _ := v.Float()
		keys[0] = valueKey{t: event.TypeFloat, n: f}
		keys[1] = valueKey{t: event.TypeInt, n: f}
		return keys, 2
	case event.TypeString:
		s, _ := v.Str()
		keys[0] = valueKey{t: event.TypeString, s: s}
		return keys, 1
	case event.TypeBool:
		b, _ := v.Bool()
		keys[0] = valueKey{t: event.TypeBool, b: b}
		return keys, 1
	default:
		return keys, 0
	}
}

// NewFast returns an empty FastMatcher.
func NewFast() *FastMatcher {
	m := &FastMatcher{
		subs: make(map[ident.ID][]*fastFilter),
	}
	m.idx.Store(emptyFastIndex)
	return m
}

// Name implements Matcher.
func (m *FastMatcher) Name() string { return string(KindFast) }

// cloneDelta starts the next snapshot from cur: the index map is
// shallow-copied (attrIndex values shared), dense and empties are
// copied flat. Callers then clone the individual attrIndexes they
// change via indexForWrite before mutating them — everything reachable
// from the currently published snapshot stays frozen.
func cloneDelta(cur *fastIndex) *fastIndex {
	next := &fastIndex{
		index:   make(map[string]*attrIndex, len(cur.index)+1),
		dense:   append([]*fastFilter(nil), cur.dense...),
		empties: append([]*fastFilter(nil), cur.empties...),
		count:   cur.count,
	}
	for name, ai := range cur.index {
		next.index[name] = ai
	}
	return next
}

// indexForWrite returns a mutable attrIndex for name inside the
// snapshot under construction, cloning the one shared with the
// previous snapshot on first touch.
func (next *fastIndex) indexForWrite(name string, cloned map[string]bool) *attrIndex {
	ai, ok := next.index[name]
	switch {
	case !ok:
		ai = &attrIndex{eq: make(map[valueKey][]*constraintRef)}
		next.index[name] = ai
	case !cloned[name]:
		ai = ai.clone()
		next.index[name] = ai
	}
	cloned[name] = true
	return ai
}

// Subscribe implements Matcher.
func (m *FastMatcher) Subscribe(sub ident.ID, f *event.Filter) error {
	if f == nil {
		return ErrNilFilter
	}
	if err := f.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ff := range m.subs[sub] {
		if ff.filter.Equal(f) {
			return nil // idempotent
		}
	}
	next := cloneDelta(m.idx.Load())
	ff := &fastFilter{sub: sub, filter: f.Clone(), need: int32(f.Len())}
	if n := len(m.free); n > 0 {
		ff.idx = m.free[n-1]
		m.free = m.free[:n-1]
		next.dense[ff.idx] = ff
	} else {
		ff.idx = len(next.dense)
		next.dense = append(next.dense, ff)
	}
	m.subs[sub] = append(m.subs[sub], ff)
	next.count++
	if ff.need == 0 {
		next.empties = append(next.empties, ff)
	}
	cloned := make(map[string]bool, f.Len())
	for _, c := range ff.filter.Constraints() {
		next.indexForWrite(c.Name, cloned).add(&constraintRef{c: c, f: ff})
	}
	m.idx.Store(next)
	return nil
}

func (ai *attrIndex) add(ref *constraintRef) {
	switch ref.c.Op {
	case event.OpEq:
		if k, ok := keyOf(ref.c.Value); ok {
			ai.eq[k] = append(ai.eq[k], ref)
			return
		}
		ai.linear = append(ai.linear, ref)
	case event.OpExists:
		ai.exists = append(ai.exists, ref)
	case event.OpLt, event.OpLe:
		if bound, ok := numericBound(ref.c.Value); ok {
			ai.less = insertOrdered(ai.less, orderedRef{
				bound: bound, incl: ref.c.Op == event.OpLe, ref: ref,
			})
			return
		}
		ai.linear = append(ai.linear, ref)
	case event.OpGt, event.OpGe:
		if bound, ok := numericBound(ref.c.Value); ok {
			ai.greater = insertOrdered(ai.greater, orderedRef{
				bound: bound, incl: ref.c.Op == event.OpGe, ref: ref,
			})
			return
		}
		ai.linear = append(ai.linear, ref)
	default:
		ai.linear = append(ai.linear, ref)
	}
}

func numericBound(v event.Value) (float64, bool) {
	switch v.Type() {
	case event.TypeInt:
		i, _ := v.Int()
		return float64(i), true
	case event.TypeFloat:
		f, _ := v.Float()
		return f, true
	default:
		return 0, false
	}
}

func insertOrdered(s []orderedRef, r orderedRef) []orderedRef {
	i := sort.Search(len(s), func(i int) bool { return s[i].bound >= r.bound })
	s = append(s, orderedRef{})
	copy(s[i+1:], s[i:])
	s[i] = r
	return s
}

func removeRef(s []*constraintRef, ff *fastFilter) []*constraintRef {
	out := s[:0]
	for _, r := range s {
		if r.f != ff {
			out = append(out, r)
		}
	}
	return out
}

func removeOrdered(s []orderedRef, ff *fastFilter) []orderedRef {
	out := s[:0]
	for _, r := range s {
		if r.ref.f != ff {
			out = append(out, r)
		}
	}
	return out
}

// Unsubscribe implements Matcher.
func (m *FastMatcher) Unsubscribe(sub ident.ID, f *event.Filter) error {
	if f == nil {
		return ErrNilFilter
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	list := m.subs[sub]
	for i, ff := range list {
		if !ff.filter.Equal(f) {
			continue
		}
		m.subs[sub] = append(list[:i], list[i+1:]...)
		if len(m.subs[sub]) == 0 {
			delete(m.subs, sub)
		}
		next := cloneDelta(m.idx.Load())
		next.removeFilter(ff)
		m.free = append(m.free, ff.idx)
		m.idx.Store(next)
		return nil
	}
	return ErrNoSuchSubscription
}

// UnsubscribeAll implements Matcher.
func (m *FastMatcher) UnsubscribeAll(sub ident.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	list := m.subs[sub]
	if len(list) == 0 {
		delete(m.subs, sub)
		return
	}
	next := cloneDelta(m.idx.Load())
	for _, ff := range list {
		next.removeFilter(ff)
		m.free = append(m.free, ff.idx)
	}
	delete(m.subs, sub)
	m.idx.Store(next)
}

// removeFilter detaches ff from the snapshot under construction:
// affected attribute indexes are cloned on first touch, the dense slot
// cleared, empties pruned. Caller holds m.mu and returns ff.idx to the
// writer-side free list.
func (next *fastIndex) removeFilter(ff *fastFilter) {
	next.dense[ff.idx] = nil
	next.count--
	if ff.need == 0 {
		for i, have := range next.empties {
			if have == ff {
				next.empties = append(next.empties[:i], next.empties[i+1:]...)
				break
			}
		}
	}
	cloned := make(map[string]bool, ff.filter.Len())
	for _, c := range ff.filter.Constraints() {
		if _, ok := next.index[c.Name]; !ok {
			continue
		}
		ai := next.indexForWrite(c.Name, cloned)
		if k, ok2 := keyOf(c.Value); ok2 && c.Op == event.OpEq {
			ai.eq[k] = removeRef(ai.eq[k], ff)
			if len(ai.eq[k]) == 0 {
				delete(ai.eq, k)
			}
		}
		ai.less = removeOrdered(ai.less, ff)
		ai.greater = removeOrdered(ai.greater, ff)
		ai.linear = removeRef(ai.linear, ff)
		ai.exists = removeRef(ai.exists, ff)
		if ai.empty() {
			delete(next.index, c.Name)
		}
	}
}

// SubscriptionCount implements Matcher. Lock-free: it reads the
// current snapshot.
func (m *FastMatcher) SubscriptionCount() int {
	return m.idx.Load().count
}

// Match implements Matcher. See MatchAppend.
func (m *FastMatcher) Match(e *event.Event) []ident.ID {
	return m.MatchAppend(e, nil)
}

// MatchAppend implements Matcher using cached scratch; see
// MatchAppendScratch for the algorithm.
func (m *FastMatcher) MatchAppend(e *event.Event, dst []ident.ID) []ident.ID {
	sc := m.scratch.get()
	dst = m.MatchAppendScratch(e, dst, sc)
	m.scratch.put(sc)
	return dst
}

// MatchAppendScratch implements ScratchMatcher via the counting
// algorithm: one pass over the event's attributes, bumping a counter
// per touched filter; filters whose every constraint is satisfied
// match. Empty filters match everything. The entire match runs against
// one immutable index snapshot loaded through an atomic pointer — no
// lock is taken, so concurrent matches on different cores share
// nothing but read-only memory and scale with cores. Counters, the
// matched list and the dedup set live in the caller's epoch-stamped
// scratch so the hot path performs no per-match allocation.
func (m *FastMatcher) MatchAppendScratch(e *event.Event, dst []ident.ID, sc *Scratch) []ident.ID {
	idx := m.idx.Load()

	if len(sc.counts) < len(idx.dense) {
		sc.counts = make([]int32, len(idx.dense)+16)
		sc.stamps = make([]uint32, len(idx.dense)+16)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps are stale, reset
		for i := range sc.stamps {
			sc.stamps[i] = 0
		}
		sc.epoch = 1
	}
	if sc.seen == nil {
		sc.seen = make(map[ident.ID]struct{}, 8)
	}
	sc.matched = sc.matched[:0]
	defer func() {
		for id := range sc.seen {
			delete(sc.seen, id)
		}
		sc.matched = sc.matched[:0]
	}()

	bump := func(ref *constraintRef) {
		i := ref.f.idx
		if sc.stamps[i] != sc.epoch {
			sc.stamps[i] = sc.epoch
			sc.counts[i] = 0
		}
		sc.counts[i]++
		if sc.counts[i] == ref.f.need {
			sc.matched = append(sc.matched, ref.f)
		}
	}

	// One pass over the event's attributes via the index accessors —
	// no closure, no name-slice materialisation (the inline event
	// representation stores attributes sorted, so At is a direct
	// array read).
	for ei, en := 0, e.Len(); ei < en; ei++ {
		name, v := e.At(ei)
		ai, ok := idx.index[name]
		if !ok {
			continue
		}
		for _, ref := range ai.exists {
			bump(ref)
		}
		keys, kn := probeKeys(v)
		for ki := 0; ki < kn; ki++ {
			for _, ref := range ai.eq[keys[ki]] {
				bump(ref)
			}
		}
		if n, ok := valueAsNumeric(v); ok {
			// less: satisfied when n < bound (or <= for incl).
			i := sort.Search(len(ai.less), func(i int) bool {
				return ai.less[i].bound >= n
			})
			for ; i < len(ai.less); i++ {
				r := ai.less[i]
				if n < r.bound || (r.incl && n == r.bound) {
					bump(r.ref)
				}
			}
			// greater: satisfied when n > bound (or >= for incl).
			j := sort.Search(len(ai.greater), func(i int) bool {
				return ai.greater[i].bound > n
			})
			for k := 0; k < j; k++ {
				r := ai.greater[k]
				if n > r.bound || (r.incl && n == r.bound) {
					bump(r.ref)
				}
			}
		}
		for _, ref := range ai.linear {
			if ref.c.MatchValue(v) {
				bump(ref)
			}
		}
	}

	for _, ff := range sc.matched {
		if _, dup := sc.seen[ff.sub]; !dup {
			sc.seen[ff.sub] = struct{}{}
			dst = append(dst, ff.sub)
		}
	}
	// Empty filters (need == 0) never enter the index; they match all.
	for _, ff := range idx.empties {
		if _, dup := sc.seen[ff.sub]; !dup {
			sc.seen[ff.sub] = struct{}{}
			dst = append(dst, ff.sub)
		}
	}
	return dst
}

// valueAsNumeric mirrors the event package's numeric projection (ints
// and floats compare by magnitude) without exporting its internals.
func valueAsNumeric(v event.Value) (float64, bool) {
	if f, ok := v.Float(); ok {
		return f, true
	}
	if i, ok := v.Int(); ok {
		return float64(i), true
	}
	return 0, false
}
