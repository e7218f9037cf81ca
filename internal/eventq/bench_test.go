package eventq

import (
	"testing"

	"wlan80211/internal/phy"
)

// BenchmarkEventQueue measures the schedule/fire/cancel round trip on
// a nearly empty queue: each iteration schedules one event, cancels
// a quarter of them, and fires one. It pops at least as many events as
// it schedules, so the 1024 warm-up events drain within about 4k
// iterations and the benchmark then runs with at most one pending
// event. BenchmarkEventQueueSteady measures a realistic pending
// population.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	var q Queue
	fn := func() {}
	// 1024 warm-up events; they drain early in the run (see above).
	for i := 0; i < 1024; i++ {
		q.After(phy.Micros(i%97+1), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.After(phy.Micros(i%131+1), fn)
		if i%4 == 0 {
			e.Cancel()
		}
		q.Step()
	}
}

// BenchmarkEventQueueCancelHeavy stresses cancellation: every scheduled
// event is cancelled, as happens to backoff countdowns on a busy
// medium.
func BenchmarkEventQueueCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	var q Queue
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.After(phy.Micros(i%53+1), fn)
		e.Cancel()
		if i%8 == 0 {
			q.Step()
		}
	}
}

// BenchmarkEventQueueSteady keeps about 200 events pending in the
// simulator's mix and fires one per iteration. 150 contenders run
// short DIFS+backoff countdowns; a countdown firing is a transmission
// start, which schedules its completion and freezes up to eight other
// contenders, whose countdowns are cancelled and re-armed behind the
// airtime. The completion re-arms the sender's countdown. 40 traffic
// ticks re-arm themselves 10 ms to 1 s ahead. Every contender always
// holds one pending countdown or completion, so 190 events stay
// pending.
func BenchmarkEventQueueSteady(b *testing.B) {
	const contenders, ticks, frozen = 150, 40, 8
	var q Queue
	x := uint64(88172645463325252)
	rnd := func(n int) phy.Micros {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return phy.Micros(x % uint64(n))
	}
	backoff := func() phy.Micros { return 50 + 20*rnd(32) }
	countdown := make([]Event, contenders)
	fire := make([]func(), contenders)
	done := make([]func(), contenders)
	for i := range fire {
		done[i] = func() { countdown[i] = q.After(backoff(), fire[i]) }
		fire[i] = func() {
			countdown[i] = Event{}
			air := 300 + rnd(2000)
			q.After(air, done[i])
			for k := 0; k < frozen; k++ {
				if j := rnd(contenders); countdown[j].Pending() {
					countdown[j].Cancel()
					countdown[j] = q.After(air+backoff(), fire[j])
				}
			}
		}
		countdown[i] = q.After(backoff(), fire[i])
	}
	var tick func()
	tick = func() { q.After(10_000+rnd(990_000), tick) }
	for i := 0; i < ticks; i++ {
		q.After(rnd(1_000_000), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(q.Len()), "pending")
}
