package sim

// imessage is an in-flight message in the calendar's internal form: sender
// and recipient as 4-byte indexes (newEngine guards N < 2³¹) and the
// payload as a packed run-table ref instead of a boxed interface value. Its
// delivery step is the key of the bucket holding it, so it is not stored.
// At 24 bytes against Message's 48 — and, crucially, with no pointers —
// the calendar's peak-in-flight storage halves and drops out of GC scans
// entirely. The engine materializes a Message (boxed payload and all) only
// at delivery, when the copy lands in the recipient's mailbox.
type imessage struct {
	from, to int32
	ref      int64 // packed payload ref: table index << 32 | slot (engine.go)
	sentAt   Step
}

// calBucket is the in-flight messages of one delivery step. Buckets live
// behind a pointer so that appending to one costs a single map lookup —
// the old value-slice map paid lookup + store per add, the hottest pair of
// map operations in the whole engine.
type calBucket struct {
	msgs []imessage
}

// calendar holds the in-flight messages of a run, bucketed by delivery
// step. It is the storage half of the event index: the scheduler's heap
// holds one delivery-mark entry per live bucket, pushed when addRun
// creates the bucket.
//
// Two things keep steady-state insertion cheap and allocation-free:
//
//   - A one-entry MRU cache (lastAt/lastB): a commit phase inserts runs of
//     messages with the same delivery step (every draft of a process shares
//     t + d_p, and processes overwhelmingly share d), so consecutive runs
//     skip the map entirely.
//
//   - Recycling with a growth floor: take hands a bucket to the engine,
//     release returns its storage, and maxLen tracks the largest bucket the
//     run has seen. A bucket that must grow jumps straight to that
//     high-water mark instead of doubling through it — a dense 10⁶-process
//     step otherwise re-pays the full realloc-and-copy ladder whenever the
//     free list is cold.
type calendar struct {
	buckets map[Step]*calBucket
	free    []*calBucket

	lastAt Step
	lastB  *calBucket

	maxLen int
}

func (c *calendar) init() {
	c.buckets = make(map[Step]*calBucket)
	c.lastB = nil
}

// addRun appends a run of messages sharing one delivery step, creating
// the bucket if needed and reserving the space in a single growth step. It
// reports whether the bucket was created — the caller's cue to push the
// bucket's delivery mark onto the scheduler heap (exactly once per bucket).
func (c *calendar) addRun(at Step, msgs []imessage) (created bool) {
	if len(msgs) == 0 {
		return false
	}
	b := c.lastB
	if b == nil || at != c.lastAt {
		var ok bool
		b, ok = c.buckets[at]
		if !ok {
			b = c.newBucket(at)
			created = true
		}
		c.lastAt, c.lastB = at, b
	}
	if cap(b.msgs)-len(b.msgs) < len(msgs) {
		c.grow(b, len(msgs))
	}
	b.msgs = append(b.msgs, msgs...)
	return created
}

// grow reallocates b's storage for need more entries: at least doubled, at
// least the run's high-water bucket length.
func (c *calendar) grow(b *calBucket, need int) {
	newCap := 2 * cap(b.msgs)
	if min := len(b.msgs) + need; newCap < min {
		newCap = min
	}
	if newCap < c.maxLen {
		newCap = c.maxLen
	}
	if newCap < 16 {
		newCap = 16
	}
	ns := make([]imessage, len(b.msgs), newCap)
	copy(ns, b.msgs)
	b.msgs = ns
}

// take removes and returns the bucket's messages at step at, or nil. The
// caller must hand the bucket back through release when done with it.
func (c *calendar) take(at Step) *calBucket {
	b, ok := c.buckets[at]
	if !ok {
		return nil
	}
	delete(c.buckets, at)
	if c.lastB == b {
		c.lastB = nil
	}
	if len(b.msgs) > c.maxLen {
		c.maxLen = len(b.msgs)
	}
	return b
}

// release recycles a bucket obtained from take.
func (c *calendar) release(b *calBucket) {
	b.msgs = b.msgs[:0]
	c.free = append(c.free, b)
}

// newBucket installs an empty bucket at step at, reusing freed storage.
func (c *calendar) newBucket(at Step) *calBucket {
	var b *calBucket
	if n := len(c.free); n > 0 {
		b = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		b = &calBucket{}
	}
	c.buckets[at] = b
	return b
}
