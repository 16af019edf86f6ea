package sim

import "unsafe"

// Payload interning.
//
// The delivery path used to carry the boxed Payload interface value inside
// every in-flight Message — 16 bytes of interface header per copy, pinned
// in calendar buckets for the full flight time, re-scanned by the GC, and
// re-boxed at every fan-out. The run's payload table replaces that with
// small-integer handles: the Outbox stages the distinct payload values of
// one local step, the commit phase interns each staged value into the table,
// and everything downstream — calendar buckets, delivery, drop accounting —
// moves integer refs. The boxed value is materialized again only at the
// protocol boundary, when a delivery lands in a mailbox as a Message, so
// protocols (and the naive oracle, which never sees the table) are
// untouched.
//
// Slot lifetime: intern resolves a staged value to a slot — reusing the
// most recently interned slot when the value is interface-identical to it
// (the cross-process twin of the Outbox's staging memo: a step in which
// every process broadcasts the same pre-boxed payload occupies one slot,
// not N) — and the commit loop adds the number of calendar copies that
// survived the crash/omission drop checks in one batched update per
// (payload, slot), not one increment per copy. Delivery (or the
// dropped-at-crashed path) decrements the count, and the slot is recycled
// through the free list the moment it returns to zero. Staged payloads
// whose every send was dropped are swept back immediately after the commit
// loop. A slot therefore lives exactly as long as calendar entries point at
// it, the table's footprint is bounded by the number of *distinct* payloads
// in flight, and steady-state interning allocates nothing.
//
// Each table also memoizes the kind-table index of its most recently
// interned value (memoKind): the lane resolves Payload.Kind() only on the
// interns that miss the memo, so per-send and even per-local-step kind
// accounting is an integer increment, not a string probe.

// payloadSlot is one interned payload: the boxed value and its live
// calendar reference count.
type payloadSlot struct {
	val  Payload
	refs int32
}

// payloadTable is a payload arena — the engine keeps one per shard lane
// (lane 0's serves every step that runs inline). Call init before use (it arms the memo and
// presizes the storage).
type payloadTable struct {
	slots []payloadSlot
	free  []int32

	// memoSlot is the slot of the most recently interned value, or -1, and
	// memoKind the kind-table index its owner resolved for it. intern
	// validates a hit against the slot's current value, so a slot that was
	// released (val nil) or recycled for another payload can never be
	// served stale.
	memoSlot int32
	memoKind int32
}

// internTablePresize bounds how much slot storage init reserves up front.
// A slot per process covers the bounded-fanout protocols at paper scale
// (the experiment grids top out in the low thousands), and the cap
// matters: presizing by N unconditionally puts tens of kilobytes of
// pointer-holding, GC-scanned slot storage on every big-N run — measured
// as a double-digit ring/10k wall regression — while beyond the cap the
// growth ladder amortizes to a handful of doublings per run.
const internTablePresize = 1 << 10

// init presizes the table for a run of n processes. Small runs used to pay
// the slot and free-list growth chain on every run (the round-robin
// benchmark regression); one right-sized allocation each is cheaper than
// the doubling sequence.
func (t *payloadTable) init(n int) {
	hint := n
	if hint > internTablePresize {
		hint = internTablePresize
	}
	if hint < 16 {
		hint = 16
	}
	t.slots = make([]payloadSlot, 0, hint)
	t.free = make([]int32, 0, hint)
	t.memoSlot = -1
}

// intern resolves val to a slot and reports whether the slot is fresh —
// the caller's cue to resolve val's kind and store it in memoKind. A memo
// hit returns the existing slot of an interface-identical live value; refs
// are untouched either way (the commit loop adds surviving copies in one
// batch via addRefs).
func (t *payloadTable) intern(val Payload) (slot int32, fresh bool) {
	if s := t.memoSlot; s >= 0 && val != nil && samePayload(val, t.slots[s].val) {
		return s, false
	}
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.slots = append(t.slots, payloadSlot{})
		slot = int32(len(t.slots) - 1)
	}
	s := &t.slots[slot]
	s.val, s.refs = val, 0
	if val != nil {
		t.memoSlot = slot
	} else {
		t.memoSlot = -1
	}
	return slot, true
}

// addRefs records n more calendar copies of the slot in one update.
func (t *payloadTable) addRefs(slot int32, n int32) { t.slots[slot].refs += n }

// release drops one calendar copy; the last release recycles the slot and
// unpins the boxed value.
func (t *payloadTable) release(slot int32) {
	s := &t.slots[slot]
	if s.refs--; s.refs <= 0 {
		s.val = nil
		if t.memoSlot == slot {
			t.memoSlot = -1
		}
		t.free = append(t.free, slot)
	}
}

// sweep recycles a slot that ended the commit loop with no calendar copies
// (every send of its payload was dropped).
func (t *payloadTable) sweep(slot int32) {
	if s := &t.slots[slot]; s.refs == 0 {
		s.val = nil
		if t.memoSlot == slot {
			t.memoSlot = -1
		}
		t.free = append(t.free, slot)
	}
}

// val returns the boxed payload of a live slot.
func (t *payloadTable) val(slot int32) Payload { return t.slots[slot].val }

// live reports how many slots are currently referenced — the distinct
// payloads in flight. Exposed for the intern-table regression tests.
func (t *payloadTable) live() int { return len(t.slots) - len(t.free) }

// samePayload reports whether two Payload interface values are *identical*:
// same dynamic type and same data word. It is the dedup predicate of both
// the Outbox staging memo and the table's intern memo. Identical headers
// imply equal values, so there are no false positives; separately boxed but
// equal values compare false, which merely costs a duplicate slot, never
// correctness. Pre-boxed package-level payloads (and all zero-size
// payloads, which share the runtime's zero base) are what make fan-outs
// collapse to one slot.
func samePayload(a, b Payload) bool {
	return *(*[2]uintptr)(unsafe.Pointer(&a)) == *(*[2]uintptr)(unsafe.Pointer(&b))
}
