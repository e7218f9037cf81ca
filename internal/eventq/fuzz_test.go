package eventq

import (
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"wlan80211/internal/phy"
)

// checkBuckets walks every bucket list and fails t unless the radix
// invariants hold: links agree both ways, each entry is pending and
// sits in bucket bits.Len64(at ^ last), no entry is before last or
// Now, and same-instant entries of a bucket are in seq order. It
// returns the number of linked entries, which must equal Len.
func checkBuckets(t *testing.T, q *Queue) int {
	t.Helper()
	count := 0
	for b := 0; b < 64; b++ {
		if q.mask&(1<<uint(b)) == 0 {
			continue
		}
		lastSeq := map[phy.Micros]uint64{}
		prev := int32(-1)
		for idx := q.head[b]; idx >= 0; idx = q.slots[idx].next {
			s := &q.slots[idx]
			switch {
			case s.prev != prev:
				t.Fatalf("bucket %d: slot %d prev=%d, want %d", b, idx, s.prev, prev)
			case s.state != statePending:
				t.Fatalf("bucket %d: slot %d is not pending", b, idx)
			case int(s.bucket) != b || bits.Len64(uint64(s.at^q.last)) != b:
				t.Fatalf("bucket %d: slot %d at %d filed as %d (last %d)", b, idx, s.at, s.bucket, q.last)
			case s.at < q.last || s.at < q.now:
				t.Fatalf("bucket %d: slot %d at %d before last %d / now %d", b, idx, s.at, q.last, q.now)
			}
			if seq, ok := lastSeq[s.at]; ok && seq > s.seq {
				t.Fatalf("bucket %d: same-instant seq %d after %d", b, s.seq, seq)
			}
			lastSeq[s.at] = s.seq
			prev = idx
			count++
			if count > len(q.slots) {
				t.Fatal("bucket list cycle")
			}
		}
		if q.tail[b] != prev {
			t.Fatalf("bucket %d: tail=%d, want %d", b, q.tail[b], prev)
		}
	}
	if count != q.n {
		t.Fatalf("buckets hold %d entries, Len=%d", count, q.n)
	}
	return count
}

// before orders entries by (time, seq): earliest first, FIFO within
// the same instant.
func (a EntryState) before(b EntryState) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// oracle is the brute-force reference: a slice kept sorted by
// (time, seq).
type oracle struct {
	now     phy.Micros
	seq     uint64
	pending []EntryState // Idx holds the event id
	state   []uint8      // per event id
	log     []int
	runs    uint64
	cancels uint64
}

func (o *oracle) at(t phy.Micros) {
	if t < o.now {
		t = o.now
	}
	e := EntryState{At: t, Seq: o.seq, Idx: int32(len(o.state))}
	o.seq++
	o.state = append(o.state, statePending)
	i := sort.Search(len(o.pending), func(i int) bool { return e.before(o.pending[i]) })
	o.pending = append(o.pending, EntryState{})
	copy(o.pending[i+1:], o.pending[i:])
	o.pending[i] = e
}

func (o *oracle) cancel(id int) {
	if o.state[id] != statePending {
		return
	}
	for i, e := range o.pending {
		if int(e.Idx) == id {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			break
		}
	}
	o.state[id] = stateCancelled
	o.cancels++
}

// step fires the minimum if it is at or before limit.
func (o *oracle) step(limit phy.Micros) bool {
	if len(o.pending) == 0 || o.pending[0].At > limit {
		return false
	}
	e := o.pending[0]
	o.pending = o.pending[1:]
	o.now = e.At
	o.state[e.Idx] = stateFired
	o.log = append(o.log, int(e.Idx))
	o.runs++
	if child(int(e.Idx)) {
		o.at(o.now + phy.Micros(e.Idx%3))
	}
	return true
}

// child reports whether firing event id schedules a follow-up at
// Now + id%3, so fires also schedule from inside callbacks, same
// instant included.
func child(id int) bool { return id%4 == 0 }

// harness drives a real Queue in lockstep with the oracle.
type harness struct {
	t       *testing.T
	q       *Queue
	handles []Event // by event id
	log     []int
	o       oracle
}

func (h *harness) fn(id int) func() {
	return func() {
		h.log = append(h.log, id)
		if child(id) {
			h.handles = append(h.handles, h.q.At(h.q.Now()+phy.Micros(id%3), h.fn(len(h.handles))))
		}
	}
}

func (h *harness) at(t phy.Micros) {
	h.handles = append(h.handles, h.q.At(t, h.fn(len(h.handles))))
	h.o.at(t)
}

// checkSaveState holds SaveState to the oracle: the pending list is
// the oracle's in (At, Seq) order and names each event's slot, Now
// and the next rank match, and a second capture is deep-equal to the
// first, so capturing does not perturb the queue.
func (h *harness) checkSaveState(op int) {
	t, o := h.t, &h.o
	st := h.q.SaveState()
	if st.Now != o.now || st.Seq != o.seq || len(st.Pending) != len(o.pending) {
		t.Fatalf("op %d: saved now=%d seq=%d pending=%d; want %d %d %d", op,
			st.Now, st.Seq, len(st.Pending), o.now, o.seq, len(o.pending))
	}
	for i, e := range st.Pending {
		want := o.pending[i]
		if e.At != want.At || e.Seq != want.Seq || e.Idx != h.handles[want.Idx].slot {
			t.Fatalf("op %d: saved pending[%d] = %+v, want event %d at %d seq %d in slot %d",
				op, i, e, want.Idx, want.At, want.Seq, h.handles[want.Idx].slot)
		}
	}
	if again := h.q.SaveState(); !reflect.DeepEqual(st, again) {
		t.Fatalf("op %d: second SaveState differs:\n%+v\n%+v", op, st, again)
	}
}

func (h *harness) check(op int) {
	t, q, o := h.t, h.q, &h.o
	checkBuckets(t, q)
	if !reflect.DeepEqual(h.log, o.log) {
		t.Fatalf("op %d: fire order\n got %v\nwant %v", op, h.log, o.log)
	}
	if q.Now() != o.now || q.Len() != len(o.pending) || q.Processed() != o.runs ||
		q.Cancelled() != o.cancels || q.Scheduled() != uint64(len(o.state)) {
		t.Fatalf("op %d: now=%d len=%d runs=%d cancels=%d scheds=%d; want %d %d %d %d %d", op,
			q.Now(), q.Len(), q.Processed(), q.Cancelled(), q.Scheduled(),
			o.now, len(o.pending), o.runs, o.cancels, len(o.state))
	}
	for id, e := range h.handles {
		// Cancelled degrades to false once the slot is recycled.
		recycled := q.slots[e.slot].gen != e.gen
		if e.Pending() != (o.state[id] == statePending) ||
			e.Cancelled() != (o.state[id] == stateCancelled && !recycled) {
			t.Fatalf("op %d: event %d pending=%v cancelled=%v, oracle state %d",
				op, id, e.Pending(), e.Cancelled(), o.state[id])
		}
	}
}

// FuzzQueueOps decodes bytes into At/After/Cancel/Step/RunUntil
// operations plus SaveState captures and runs them against the
// sorted-slice oracle: identical fire order, Now, Len, counters and
// per-handle Pending/Cancelled after every operation, a captured
// pending list equal to the oracle's, and the radix invariants
// throughout. Times cover same-instant
// bursts, keys near 2^62, scheduling into the past, and scheduling
// below the key a short-stopped RunUntil peeked at. The seed corpus
// in testdata/fuzz/FuzzQueueOps replays in plain `go test`.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 20, 4, 15, 0, 4, 0, 3, 3, 3})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 1, 6, 3, 3, 3, 3})
	f.Add([]byte{0, 2, 1, 2, 0, 2, 9, 4, 200, 0, 4, 7, 6, 3, 3})
	f.Add([]byte{0, 0, 200, 4, 50, 0, 4, 0, 6, 3, 0, 3, 5, 3, 3})
	f.Fuzz(runFuzzBody)
}

func runFuzzBody(t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	h := &harness{t: t, q: &Queue{}}
	for op := 0; pos < len(data) && op < 400; op++ {
		now := h.q.Now()
		switch next() % 7 {
		case 0: // At
			var at phy.Micros
			switch next() % 5 {
			case 0: // near future
				at = now + phy.Micros(next())
			case 1: // same-instant burst
				at = now
			case 2: // near 2^62
				at = 1<<62 + phy.Micros(next())<<4
			case 3: // the past: clamps to Now
				at = now - phy.Micros(next())
			case 4: // at or below the earliest pending key
				at = now
				if len(h.o.pending) > 0 {
					at += phy.Micros(next()) % (h.o.pending[0].At - now + 1)
				}
			}
			h.at(at)
		case 1: // After, negative delays included
			d := phy.Micros(next() - 16)
			h.handles = append(h.handles, h.q.After(d, h.fn(len(h.handles))))
			if d < 0 {
				d = 0
			}
			h.o.at(now + d)
		case 2: // Cancel any handle ever issued
			if len(h.handles) > 0 {
				id := next() % len(h.handles)
				h.handles[id].Cancel()
				h.o.cancel(id)
			}
		case 3:
			if got, want := h.q.Step(), h.o.step(1<<63-1); got != want {
				t.Fatalf("op %d: Step=%v, want %v", op, got, want)
			}
		case 4: // RunUntil, often stopping short of the next key
			deadline := now + phy.Micros(next())
			h.q.RunUntil(deadline)
			for h.o.step(deadline) {
			}
			if h.o.now < deadline {
				h.o.now = deadline
			}
		case 5: // RunUntil past a long gap
			deadline := now + phy.Micros(next())<<40
			h.q.RunUntil(deadline)
			for h.o.step(deadline) {
			}
			if h.o.now < deadline {
				h.o.now = deadline
			}
		case 6:
			h.checkSaveState(op)
		}
		h.check(op)
	}
	// Drain. Children take consecutive ids here and only every
	// fourth id spawns one, so the drain terminates.
	for h.o.step(1<<63 - 1) {
		if !h.q.Step() {
			t.Fatal("queue drained before the oracle")
		}
	}
	if h.q.Step() {
		t.Fatal("queue fired after the oracle drained")
	}
	h.check(-1)
}
