package eventq

import (
	"cmp"
	"slices"

	"wlan80211/internal/phy"
)

// This file exposes the queue's complete numeric state for the
// snapshot subsystem. SaveState records everything but the callbacks
// (slab slots with their FIFO ranks, the pending events, the free
// list, the clock, the bucketing base and the op counters). The state
// is a witness, never loaded back: a resumed run replays from zero
// and proves it passes through the same state byte for byte, so
// callbacks never need serializing.
//
// The pending events are saved as one canonical list sorted by
// (time, seq), independent of how they sit in the buckets.

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

// Slot returns the slab index the handle points at, or -1 for the
// zero Event. Together with When/Pending it lets snapshot consumers
// record which queue slot a held handle refers to.
func (e Event) Slot() int32 {
	if e.q == nil {
		return -1
	}
	return e.slot
}
