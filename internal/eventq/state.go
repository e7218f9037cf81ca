package eventq

import (
	"cmp"
	"fmt"
	"slices"

	"wlan80211/internal/phy"
)

// This file exposes the queue's complete numeric state for the
// snapshot subsystem. Callbacks are funcs and cannot be serialized;
// SaveState records everything else (slab slots with their FIFO
// ranks, the pending events, the free list, the clock, the bucketing
// base and the op counters) and RestoreState rebuilds a live queue
// from it, asking the caller to rebind each pending slot's callback.
// A deterministic caller that re-creates its callbacks in slot order
// gets a queue that fires the exact event sequence of the original,
// free-list reuse order and same-instant FIFO ranks included.
//
// The pending events are saved as one canonical list sorted by
// (time, seq), independent of how they sit in the buckets. A sorted
// list is also a valid binary heap.

// SlotState is one slab entry minus its callback.
type SlotState struct {
	At    phy.Micros
	Seq   uint64
	Gen   uint32
	State uint8
	HasFn bool
}

// EntryState is one pending event: its time, FIFO rank and slot.
type EntryState struct {
	At  phy.Micros
	Seq uint64
	Idx int32
}

// QueueState is the queue's full serializable state.
type QueueState struct {
	Now     phy.Micros
	Last    phy.Micros // time of the last fired event (bucketing base)
	Seq     uint64
	Runs    uint64
	Relocs  uint64
	Scheds  uint64
	Cancels uint64
	Slots   []SlotState
	Pending []EntryState // sorted by (At, Seq)
	Free    []int32
}

// SaveState captures the queue's complete state (except callbacks).
func (q *Queue) SaveState() QueueState {
	st := QueueState{
		Now: q.now, Last: q.last, Seq: q.seq, Runs: q.runs,
		Relocs: q.relocs, Scheds: q.scheds, Cancels: q.cancels,
		Slots:   make([]SlotState, len(q.slots)),
		Pending: make([]EntryState, 0, q.n),
		Free:    append([]int32(nil), q.free...),
	}
	for i := range q.slots {
		s := &q.slots[i]
		st.Slots[i] = SlotState{At: s.at, Seq: s.seq, Gen: s.gen, State: s.state, HasFn: s.fn != nil}
		if s.state == statePending {
			st.Pending = append(st.Pending, EntryState{At: s.at, Seq: s.seq, Idx: int32(i)})
		}
	}
	slices.SortFunc(st.Pending, func(a, b EntryState) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
	})
	return st
}

// before orders entries by (time, seq): earliest first, FIFO within
// the same instant.
func (a EntryState) before(b EntryState) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// RestoreState rebuilds a queue from a saved state. rebind is called
// once per slot that held a callback (in slot order) and must return
// the function to fire; the snapshot's consumer reconstructs its
// callbacks deterministically and maps them back by slot index.
// Structural invalidity returns an error, never panics: a pending
// entry out of range, listed twice, out of (time, seq) order,
// disagreeing with its slot, before Now, or ranked at or after Seq;
// a pending slot without a callback or missing from the list; a
// bucketing base after Now or negative; a free-list entry out of
// range, pending or listed twice.
func RestoreState(st QueueState, rebind func(slot int) func()) (*Queue, error) {
	if st.Last < 0 || st.Last > st.Now {
		return nil, fmt.Errorf("eventq: last fired time %d outside [0, now %d]", st.Last, st.Now)
	}
	q := &Queue{
		now: st.Now, last: st.Last, seq: st.Seq, runs: st.Runs,
		relocs: st.Relocs, scheds: st.Scheds, cancels: st.Cancels,
		slots: make([]slot, len(st.Slots)),
		free:  append([]int32(nil), st.Free...),
	}
	for i, ss := range st.Slots {
		if ss.State > stateCancelled {
			return nil, fmt.Errorf("eventq: slot %d has unknown state %d", i, ss.State)
		}
		s := &q.slots[i]
		s.at, s.seq, s.gen, s.state = ss.At, ss.Seq, ss.Gen, ss.State
		s.next, s.prev = -1, -1
		if ss.HasFn {
			if rebind == nil {
				return nil, fmt.Errorf("eventq: slot %d needs a callback but rebind is nil", i)
			}
			if s.fn = rebind(i); s.fn == nil {
				return nil, fmt.Errorf("eventq: rebind returned no callback for slot %d", i)
			}
		} else if ss.State == statePending {
			return nil, fmt.Errorf("eventq: pending slot %d has no callback", i)
		}
	}
	// listed marks slots already seen in the pending or free list.
	listed := make([]bool, len(q.slots))
	for i, e := range st.Pending {
		if e.Idx < 0 || int(e.Idx) >= len(q.slots) {
			return nil, fmt.Errorf("eventq: pending entry %d indexes slot %d of %d", i, e.Idx, len(q.slots))
		}
		if listed[e.Idx] {
			return nil, fmt.Errorf("eventq: pending entry %d lists slot %d twice", i, e.Idx)
		}
		listed[e.Idx] = true
		s := &q.slots[e.Idx]
		switch {
		case s.state != statePending:
			return nil, fmt.Errorf("eventq: pending entry %d points at non-pending slot %d", i, e.Idx)
		case e.At != s.at || e.Seq != s.seq:
			return nil, fmt.Errorf("eventq: pending entry %d disagrees with slot %d", i, e.Idx)
		case e.At < st.Now:
			return nil, fmt.Errorf("eventq: pending entry %d at %d is before now %d", i, e.At, st.Now)
		case e.Seq >= st.Seq:
			return nil, fmt.Errorf("eventq: pending entry %d rank %d not below next rank %d", i, e.Seq, st.Seq)
		case i > 0 && !st.Pending[i-1].before(e):
			return nil, fmt.Errorf("eventq: pending entry %d out of (time, seq) order", i)
		}
		// Sorted insertion keeps same-instant entries of every bucket
		// in seq order, the invariant pop relies on.
		q.push(e.Idx)
		q.n++
	}
	for i := range q.slots {
		if q.slots[i].state == statePending && !listed[i] {
			return nil, fmt.Errorf("eventq: pending slot %d missing from the pending list", i)
		}
	}
	for _, f := range q.free {
		if f < 0 || int(f) >= len(q.slots) {
			return nil, fmt.Errorf("eventq: free-list entry %d out of range", f)
		}
		if q.slots[f].state == statePending {
			return nil, fmt.Errorf("eventq: free-list entry %d is pending", f)
		}
		if listed[f] {
			return nil, fmt.Errorf("eventq: free-list entry %d listed twice", f)
		}
		listed[f] = true
	}
	return q, nil
}

// Slot returns the slab index the handle points at, or -1 for the
// zero Event. Together with When/Pending it lets snapshot consumers
// record which queue slot a held handle refers to.
func (e Event) Slot() int32 {
	if e.q == nil {
		return -1
	}
	return e.slot
}

// Handle reconstructs an Event handle for a restored slot, so callers
// that held handles across a snapshot (the simulator's per-node
// countdown and await events) can keep using Pending/When/Cancel
// after a restore. The zero Event is returned for out-of-range slots.
func (q *Queue) Handle(slot int) Event {
	if slot < 0 || slot >= len(q.slots) {
		return Event{}
	}
	s := &q.slots[slot]
	return Event{q: q, slot: int32(slot), gen: s.gen, at: s.at}
}
