package eventq

import (
	"testing"

	"wlan80211/internal/phy"
)

// These tests pin the postpone-by-re-arm pattern the DCF countdown
// runs on every freeze and resume: the pending event is cancelled and
// a fresh one is scheduled (At) at the new target. The re-armed event
// fires once, at the new time, with a FIFO rank minted at the re-arm;
// the old handle goes dead at once; and slot recycling never lets a
// dead handle touch a successor event.

// rearm postpones e to t the way the countdown does.
func rearm(q *Queue, e Event, t phy.Micros, fn func()) Event {
	e.Cancel()
	return q.At(t, fn)
}

func TestDeferFiresOnceAtDeadline(t *testing.T) {
	var q Queue
	fired := 0
	var at phy.Micros
	fn := func() { fired++; at = q.Now() }
	e := q.At(10, fn)
	e2 := rearm(&q, e, 30, fn)
	if e.Pending() || !e2.Pending() {
		t.Fatalf("after re-arm: old pending=%v new pending=%v", e.Pending(), e2.Pending())
	}
	q.Run()
	if fired != 1 || at != 30 {
		t.Fatalf("fired %d times at t=%d; want once at t=30", fired, at)
	}
	if q.Processed() != 1 || q.Cancelled() != 1 || q.Scheduled() != 2 {
		t.Errorf("processed=%d cancelled=%d scheduled=%d; want 1, 1, 2",
			q.Processed(), q.Cancelled(), q.Scheduled())
	}
}

func TestDoubleRearm(t *testing.T) {
	var q Queue
	var at phy.Micros
	fired := 0
	fn := func() { fired++; at = q.Now() }
	e := q.At(10, fn)
	e = rearm(&q, e, 30, fn)
	// A second re-arm lands from inside an event between the first
	// re-arm and its target.
	q.At(15, func() { e = rearm(&q, e, 40, fn) })
	q.Run()
	if fired != 1 || at != 40 {
		t.Fatalf("fired %d times at t=%d; want once at t=40", fired, at)
	}
	if q.Len() != 0 {
		t.Errorf("Len=%d after Run", q.Len())
	}
}

func TestDeferAfterFireAndCancelAfterFire(t *testing.T) {
	var q Queue
	e := q.At(10, func() {})
	q.Run()
	if e.Pending() {
		t.Error("fired event still pending")
	}
	if _, ok := e.When(); ok {
		t.Error("When reports a fired event pending")
	}
	e.Cancel() // must be a no-op
	if e.Cancelled() || q.Cancelled() != 0 {
		t.Error("Cancel after fire counted as a cancellation")
	}
	// The freed slot is recycled by the next scheduling; the dead
	// handle must not be able to cancel its successor.
	fired := 0
	e2 := q.At(20, func() { fired++ })
	if e2.Slot() != e.Slot() {
		t.Fatalf("successor took slot %d, want the freed slot %d", e2.Slot(), e.Slot())
	}
	e.Cancel()
	if !e2.Pending() {
		t.Fatal("dead handle cancelled a recycled slot")
	}
	q.Run()
	if fired != 1 {
		t.Fatalf("successor event fired %d times, want 1 (dead handle interfered)", fired)
	}
	if e2.Pending() {
		t.Error("successor event still pending after Run")
	}
}

func TestCancelDeferredEvent(t *testing.T) {
	var q Queue
	fn := func() { t.Error("cancelled re-armed event fired") }
	e := rearm(&q, q.At(10, fn), 30, fn)
	e.Cancel()
	if e.Pending() || !e.Cancelled() {
		t.Error("cancelled event still pending")
	}
	if q.Len() != 0 {
		t.Errorf("Len=%d after cancelling the only event", q.Len())
	}
	q.Run()
}

func TestHandleSurvivesRearmAndFreeListReuse(t *testing.T) {
	var q Queue
	fired := 0
	fn := func() { fired++ }
	old := q.At(10, fn)
	e := rearm(&q, old, 100, fn)
	// Fire-and-recycle another slot so the free list is warm, then run
	// past the old target: only the re-armed event is left.
	q.At(5, func() {})
	q.RunUntil(50)
	if !e.Pending() || old.Pending() {
		t.Fatalf("after RunUntil: re-armed pending=%v old pending=%v", e.Pending(), old.Pending())
	}
	if at, ok := e.When(); !ok || at != 100 {
		t.Fatalf("When=(%d, %v), want (100, true)", at, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len=%d, want 1", q.Len())
	}
	e = rearm(&q, e, 200, fn)
	e.Cancel()
	if e.Pending() || q.Len() != 0 {
		t.Fatal("cancel after re-arm did not remove the event")
	}
	// The slot returns to the free list and serves a fresh event the
	// dead handles cannot touch.
	e2 := q.At(60, func() { fired += 10 })
	e.Cancel()
	old.Cancel()
	if e.Pending() || old.Pending() || !e2.Pending() {
		t.Error("dead handle live after slot reuse")
	}
	q.Run()
	if fired != 10 {
		t.Fatalf("fired=%d, want 10 (reused-slot event only)", fired)
	}
}

func TestRunUntilDoesNotFireDeferredPastDeadline(t *testing.T) {
	var q Queue
	fired := false
	fn := func() { fired = true }
	rearm(&q, q.At(10, fn), 100, fn)
	q.RunUntil(50)
	if fired {
		t.Fatal("RunUntil fired an event re-armed past its deadline")
	}
	if q.Now() != 50 {
		t.Errorf("now=%d, want 50", q.Now())
	}
	q.RunUntil(100)
	if !fired {
		t.Fatal("re-armed event never fired")
	}
}

func TestRearmOrdersAfterEventsAlreadyAtInstant(t *testing.T) {
	var q Queue
	var order []string
	// B is scheduled for t=30 before A is re-armed to t=30; A's re-arm
	// mints a fresh seq, so at t=30 B keeps FIFO priority.
	fa := func() { order = append(order, "A") }
	a := q.At(10, fa)
	q.At(30, func() { order = append(order, "B") })
	rearm(&q, a, 30, fa)
	q.Run()
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Fatalf("order=%v, want [B A]", order)
	}
}

func TestStepSkipsStaleEntries(t *testing.T) {
	var q Queue
	var got []phy.Micros
	fn := func() { got = append(got, q.Now()) }
	e := q.At(10, fn)
	q.At(20, fn)
	rearm(&q, e, 40, fn)
	// The cancelled t=10 entry is gone: the first Step fires t=20.
	if !q.Step() {
		t.Fatal("Step found no event")
	}
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("first fire at %v, want [20]", got)
	}
	q.Run()
	if len(got) != 2 || got[1] != 40 {
		t.Fatalf("fires=%v, want [20 40]", got)
	}
}
