package matcher

import (
	"sync/atomic"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// Scratch is caller-owned per-match working state. The bus gives every
// shard worker its own Scratch so the dispatch hot path reuses one set
// of counter arrays and dedup maps without ever crossing a sync.Pool —
// pool Get/Put is cheap but still rendezvouses goroutines on shared
// per-P structures, which is measurable when every published event
// pays it. A Scratch must only be used by one goroutine at a time.
//
// One Scratch works with every matcher kind: FastMatcher uses the
// counting arrays and the dedup set, TypedMatcher only the dedup set,
// and SienaMatcher ignores it entirely (its per-match allocations are
// the §V overhead under measurement and are pinned — see
// TestSienaTranslationAllocsPinned).
type Scratch struct {
	// counts[i] is the number of satisfied constraints of dense[i] in
	// the current match, valid only when stamps[i] equals epoch — so
	// the arrays never need zeroing between matches.
	counts []int32
	stamps []uint32
	epoch  uint32
	// matched collects fully satisfied filters during one match.
	matched []*fastFilter
	// seen dedups subscriber IDs across a match's filters.
	seen map[ident.ID]struct{}
}

// NewScratch returns an empty Scratch, ready for use with any matcher.
func NewScratch() *Scratch {
	return &Scratch{seen: make(map[ident.ID]struct{}, 8)}
}

// scratchSlots sizes a matcher's scratchCache: enough for the
// concurrent MatchAppend callers of a small host; more fall back to
// allocating.
const scratchSlots = 8

// scratchCache lends Scratch to MatchAppend callers that bring none.
// It is a fixed array of slots taken and returned by compare-and-swap,
// so the match path stays free of locks: a sync.Pool would do the
// same job, but after every GC its Get and Put go through the
// runtime's pool registration, which takes a global mutex. A miss
// allocates; a return to a full cache drops the Scratch.
type scratchCache struct {
	slots [scratchSlots]atomic.Pointer[Scratch]
}

// get takes a cached Scratch, or allocates one when every slot is empty.
func (c *scratchCache) get() *Scratch {
	for i := range c.slots {
		if c.slots[i].Load() != nil {
			if sc := c.slots[i].Swap(nil); sc != nil {
				return sc
			}
		}
	}
	return NewScratch()
}

// put returns sc to the first empty slot.
func (c *scratchCache) put(sc *Scratch) {
	for i := range c.slots {
		if c.slots[i].CompareAndSwap(nil, sc) {
			return
		}
	}
}

// ScratchMatcher is implemented by matchers whose match path can run
// on caller-owned scratch instead of internally pooled state. All
// in-tree matchers implement it; the bus type-asserts once and gives
// each shard worker a private Scratch.
type ScratchMatcher interface {
	// MatchAppendScratch is MatchAppend running on sc. sc must not be
	// shared between concurrent calls.
	MatchAppendScratch(e *event.Event, dst []ident.ID, sc *Scratch) []ident.ID
}
