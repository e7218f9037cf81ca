package eventq

import (
	"testing"

	"wlan80211/internal/phy"
)

// TestCancelHeavyNoRetention schedules and cancels far more events
// than ever fire and asserts the buckets shed them eagerly: cancelled
// events must not linger until popped, and the slab must stay bounded
// by the peak pending population, not the total scheduled count.
func TestCancelHeavyNoRetention(t *testing.T) {
	var q Queue
	fn := func() {}
	const rounds = 10000
	for i := 0; i < rounds; i++ {
		keep := q.At(phy.Micros(i+1), fn)
		q.At(phy.Micros(i+2), fn).Cancel()
		q.At(phy.Micros(i+3), fn).Cancel()
		q.At(phy.Micros(i+4), fn).Cancel()
		_ = keep
	}
	if got := q.Len(); got != rounds {
		t.Fatalf("Len = %d, want %d live events", got, rounds)
	}
	// The bucket lists must hold exactly the Len live entries: no
	// cancelled event retained.
	checkBuckets(t, &q)
	// Slab high-water mark: one kept + at most one in-flight cancelled
	// slot per round would be 2 live slots at any instant; the slab
	// must reuse freed slots instead of growing per scheduling.
	if got := len(q.slots); got > rounds+3 {
		t.Fatalf("slab grew to %d slots for %d live events", got, rounds)
	}
	q.Run()
	if q.Processed() != rounds {
		t.Fatalf("Processed = %d, want %d", q.Processed(), rounds)
	}
}

// TestSameInstantFIFOUnderChurn interleaves same-instant scheduling
// with cancellations so fired events must still come out in schedule
// order despite slot reuse and unlinks from the middle of a bucket.
func TestSameInstantFIFOUnderChurn(t *testing.T) {
	var q Queue
	var got []int
	var doomed []Event
	want := 0
	for i := 0; i < 200; i++ {
		i := i
		if i%3 == 1 {
			doomed = append(doomed, q.At(50, func() { t.Error("cancelled event fired") }))
		} else {
			q.At(50, func() { got = append(got, i) })
			want++
		}
		if i%7 == 0 {
			for _, e := range doomed {
				e.Cancel()
			}
			doomed = doomed[:0]
		}
	}
	for _, e := range doomed {
		e.Cancel()
	}
	q.Run()
	if len(got) != want {
		t.Fatalf("fired %d events, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("same-instant FIFO violated: %d fired after %d", got[i], got[i-1])
		}
	}
}

// TestCancelStaleHandle exercises handle staleness: cancelling after
// the slot has been recycled must not touch the new occupant.
func TestCancelStaleHandle(t *testing.T) {
	var q Queue
	e1 := q.At(10, func() {})
	e1.Cancel()
	fired := false
	q.At(20, func() { fired = true }) // reuses e1's slot
	e1.Cancel()                       // stale: must be a no-op
	q.Run()
	if !fired {
		t.Fatal("stale Cancel killed an unrelated event")
	}
}

// TestZeroEventInert checks the zero handle is safe to use.
func TestZeroEventInert(t *testing.T) {
	var e Event
	e.Cancel()
	if e.Cancelled() || e.Scheduled() || e.At() != 0 {
		t.Error("zero Event must be inert")
	}
}

// TestRemoveMiddleKeepsHeapOrder cancels events from the middle of
// large buckets and verifies global ordering afterwards.
func TestRemoveMiddleKeepsHeapOrder(t *testing.T) {
	var q Queue
	var events []Event
	for i := 0; i < 500; i++ {
		at := phy.Micros((i * 7919) % 1000)
		events = append(events, q.At(at, func() {}))
	}
	for i := 0; i < len(events); i += 3 {
		events[i].Cancel()
	}
	var last phy.Micros = -1
	for q.Step() {
		if q.Now() < last {
			t.Fatalf("time went backwards: %d after %d", q.Now(), last)
		}
		last = q.Now()
	}
}
