// Package eventq provides the discrete-event scheduler driving the
// 802.11b network simulator: a priority queue of timed callbacks on a
// monotonic microsecond clock, with stable FIFO ordering for events
// scheduled at the same instant and O(1) cancellation.
//
// The queue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990). The simulator never schedules into the past, so
// every pending time is at least the time of the last fired event,
// last. An event at time t lives in bucket bits.Len64(t ^ last), the
// position of the highest bit where t departs from last. Bucket 0
// holds the events due exactly at last. When it runs dry, the lowest
// non-empty bucket is redistributed around its minimum time, and each
// entry moves to a strictly lower bucket. An event therefore relocates
// at most 63 times over its life; in the full-scale plenary it is 0.35
// times per scheduled event on average.
//
// Buckets are doubly linked lists threaded through the slot slab, and
// a slot knows its own bucket, so Cancel unlinks in O(1). Scheduling
// appends at a bucket's tail and redistribution preserves list order,
// so same-instant events always sit in FIFO (seq) order and bucket
// 0's head is the next event to fire. The (time, seq) total order,
// not the bucket layout, decides which event fires next.
//
// The layout suits the simulator's schedule-and-cancel-heavy timer
// load: every overheard transmission freezes a DCF backoff countdown
// (Cancel) and its end resumes it (At). In the paper's plenary at full
// scale, 7,689,992 of the 9,167,777 events the previous lazy countdown
// fired were frozen countdowns that did nothing but re-arm. The eager
// countdown over this queue fires 1,477,785 events there.
package eventq

import (
	"math"
	"math/bits"

	"wlan80211/internal/phy"
)

// slot states. A slot is pending while queued, then fired or
// cancelled until its next reuse.
const (
	stateFree uint8 = iota
	statePending
	stateFired
	stateCancelled
)

// slot is one slab entry backing a scheduled event. While pending it
// is linked into bucket's list through next and prev.
type slot struct {
	at         phy.Micros
	seq        uint64
	fn         func()
	next, prev int32 // bucket list neighbours; -1 at the ends
	gen        uint32
	bucket     uint8
	state      uint8
}

// Event is a handle to a scheduled callback. The zero Event is
// inert: Cancel and Cancelled are no-ops on it.
type Event struct {
	q    *Queue
	slot int32
	gen  uint32
	at   phy.Micros
}

// At returns the time the event was scheduled for.
func (e Event) At() phy.Micros { return e.at }

// Scheduled reports whether the handle refers to a real scheduling
// (i.e. is not the zero Event). It does not say whether the event is
// still pending.
func (e Event) Scheduled() bool { return e.q != nil }

// Pending reports whether the event is still queued to fire: it has
// neither fired nor been cancelled, and its slot has not been
// recycled.
func (e Event) Pending() bool {
	if e.q == nil {
		return false
	}
	s := &e.q.slots[e.slot]
	return s.gen == e.gen && s.state == statePending
}

// When returns the event's fire time and whether it is still pending.
func (e Event) When() (phy.Micros, bool) {
	if !e.Pending() {
		return 0, false
	}
	return e.at, true
}

// Cancel prevents the event from firing and releases its slot
// immediately, in O(1). Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e Event) Cancel() {
	if e.q == nil {
		return
	}
	s := &e.q.slots[e.slot]
	if s.gen != e.gen || s.state != statePending {
		return
	}
	e.q.unlink(s)
	e.q.n--
	s.state = stateCancelled
	s.fn = nil
	e.q.free = append(e.q.free, e.slot)
	e.q.cancels++
}

// Cancelled reports whether Cancel was called before the event fired.
// Once the event's slot has been recycled by a later scheduling the
// report degrades to false.
func (e Event) Cancelled() bool {
	if e.q == nil {
		return false
	}
	s := &e.q.slots[e.slot]
	return s.gen == e.gen && s.state == stateCancelled
}

// Queue is a discrete-event scheduler. The zero value is ready to use.
type Queue struct {
	slots []slot
	free  []int32
	// head and tail of each bucket's list; meaningful only where mask
	// has the bucket's bit set.
	head, tail [64]int32
	mask       uint64
	n          int
	// last is the time of the last fired event, the base every
	// pending time is bucketed against. A RunUntil that stops short
	// leaves it alone: a later At may land between Now and the next
	// pending time.
	last    phy.Micros
	now     phy.Micros
	seq     uint64
	runs    uint64
	scheds  uint64
	cancels uint64
	relocs  uint64
}

// Now returns the current simulation time.
func (q *Queue) Now() phy.Micros { return q.now }

// Len returns the number of pending events in O(1).
func (q *Queue) Len() int { return q.n }

// Processed returns the number of events that have fired.
func (q *Queue) Processed() uint64 { return q.runs }

// Scheduled returns the number of events ever scheduled (At/After
// calls, one bucket insert each).
func (q *Queue) Scheduled() uint64 { return q.scheds }

// Cancelled returns the number of cancellations (one bucket unlink
// each).
func (q *Queue) Cancelled() uint64 { return q.cancels }

// Relocations returns the number of bucket moves made while
// redistributing the lowest non-empty bucket. Scheduled + Cancelled +
// Relocations counts every queue mutation beyond the fire pops.
func (q *Queue) Relocations() uint64 { return q.relocs }

// At schedules fn at absolute time t. Scheduling in the past (t <
// Now()) clamps to Now(), which keeps the clock monotonic.
func (q *Queue) At(t phy.Micros, fn func()) Event {
	if t < q.now {
		t = q.now
	}
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slots = append(q.slots, slot{})
		idx = int32(len(q.slots) - 1)
	}
	s := &q.slots[idx]
	s.at = t
	s.seq = q.seq
	s.fn = fn
	s.gen++
	s.state = statePending
	q.seq++
	q.scheds++
	q.push(idx)
	q.n++
	return Event{q: q, slot: idx, gen: s.gen, at: t}
}

// After schedules fn d microseconds from now.
func (q *Queue) After(d phy.Micros, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return q.At(q.now+d, fn)
}

// Step fires the earliest pending event and returns true, or returns
// false if the queue is empty.
func (q *Queue) Step() bool {
	idx := q.pop(math.MaxInt64)
	if idx < 0 {
		return false
	}
	q.fire(idx)
	return true
}

// RunUntil fires events in order until the next one would be after
// deadline (or the queue empties). The clock finishes at exactly
// deadline.
func (q *Queue) RunUntil(deadline phy.Micros) {
	for {
		idx := q.pop(deadline)
		if idx < 0 {
			break
		}
		q.fire(idx)
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// Run fires all events until the queue is empty. Use with care: a
// self-rescheduling event makes this unbounded — prefer RunUntil.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// fire advances the clock to the popped slot's time, releases the
// slot and runs its callback.
func (q *Queue) fire(idx int32) {
	s := &q.slots[idx]
	q.now = s.at
	fn := s.fn
	s.fn = nil
	s.state = stateFired
	q.free = append(q.free, idx)
	q.runs++
	fn()
}

// --- monotone radix buckets ------------------------------------------

// pop unlinks and returns the slot of the earliest pending event, or
// -1 when the queue is empty or that event is after limit. Nothing
// changes when it returns -1.
func (q *Queue) pop(limit phy.Micros) int32 {
	if q.mask&1 == 0 {
		if q.n == 0 {
			return -1
		}
		b := bits.TrailingZeros64(q.mask)
		if q.n == 1 {
			// The only entry is the minimum, whatever its bucket:
			// take it without a redistribution.
			idx := q.head[b]
			at := q.slots[idx].at
			if at > limit {
				return -1
			}
			q.mask, q.n, q.last = 0, 0, at
			return idx
		}
		m := q.minAt(b)
		if m > limit {
			return -1
		}
		q.redistribute(b, m)
	} else if q.last > limit {
		return -1
	}
	idx := q.head[0]
	q.unlink(&q.slots[idx])
	q.n--
	return idx
}

// push appends slot idx to the tail of the bucket for its time.
func (q *Queue) push(idx int32) {
	s := &q.slots[idx]
	b := uint8(bits.Len64(uint64(s.at ^ q.last)))
	s.bucket = b
	s.next = -1
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		q.head[b] = idx
		s.prev = -1
	} else {
		t := q.tail[b]
		q.slots[t].next = idx
		s.prev = t
	}
	q.tail[b] = idx
}

// unlink removes a pending slot from its bucket's list.
func (q *Queue) unlink(s *slot) {
	b := s.bucket
	if s.prev < 0 && s.next < 0 {
		q.mask &^= 1 << b
		return
	}
	if s.prev >= 0 {
		q.slots[s.prev].next = s.next
	} else {
		q.head[b] = s.next
	}
	if s.next >= 0 {
		q.slots[s.next].prev = s.prev
	} else {
		q.tail[b] = s.prev
	}
}

// minAt returns the earliest time in bucket b.
func (q *Queue) minAt(b int) phy.Micros {
	idx := q.head[b]
	m := q.slots[idx].at
	for idx = q.slots[idx].next; idx >= 0; idx = q.slots[idx].next {
		if at := q.slots[idx].at; at < m {
			m = at
		}
	}
	return m
}

// redistribute advances last to m, the minimum of bucket b (every
// lower bucket is empty), and re-buckets b's entries in list order.
// Each lands in a strictly lower bucket, the minimum's in bucket 0;
// list order keeps same-instant entries in seq order.
func (q *Queue) redistribute(b int, m phy.Micros) {
	q.last = m
	q.mask &^= 1 << uint(b)
	for idx := q.head[b]; idx >= 0; {
		next := q.slots[idx].next
		q.push(idx)
		q.relocs++
		idx = next
	}
}
