package workload

import (
	"testing"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/sim"
	"wlan80211/internal/snapshot"
	"wlan80211/internal/sniffer"
)

// The simulator benches run the paper's two sessions end to end
// (simulate + capture + merge) at a reduced scale, reporting allocs so
// the hot-path work (event queue, link matrix, transmission pooling,
// capture arena) stays measurable.

// reportEventQueueMetrics reports the per-frame event-queue costs the
// BENCH_N trajectory tracks: fired callbacks, and queue mutations
// beyond the fire pops (bucket inserts + cancels + relocations; see
// sim.Network.EventHeapOps).
func reportEventQueueMetrics(b *testing.B, net *sim.Network, frames int) {
	b.ReportMetric(float64(net.EventsProcessed())/float64(frames), "evq_events/frame")
	b.ReportMetric(float64(net.EventHeapOps())/float64(frames), "evq_heapops/frame")
}

func benchSession(b *testing.B, s Session) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := s.Build()
		if err != nil {
			b.Fatal(err)
		}
		recs := built.Run()
		if len(recs) == 0 {
			b.Fatal("empty trace")
		}
		reportEventQueueMetrics(b, built.Net, len(recs))
	}
}

func BenchmarkSimDay(b *testing.B)     { benchSession(b, DaySession().Scale(0.15)) }
func BenchmarkSimPlenary(b *testing.B) { benchSession(b, PlenarySession().Scale(0.15)) }

// BenchmarkSimDayCheckpointed is BenchmarkSimDay's streaming run with
// a full state snapshot (network + sniffers, container-framed) taken
// every simulated second — the worst-case checkpoint cadence. The gap
// between this and the plain bench is the whole cost of
// checkpointing; snap_bytes tracks the serialized state size.
func BenchmarkSimDayCheckpointed(b *testing.B) {
	b.ReportAllocs()
	s := DaySession().Scale(0.15)
	for i := 0; i < b.N; i++ {
		built, err := s.Build()
		if err != nil {
			b.Fatal(err)
		}
		frames, snaps, snapBytes := 0, 0, 0
		err = built.RunStreamSlices(func(capture.Record) { frames++ },
			phy.MicrosPerSecond, func(t phy.Micros) error {
				states := make([]sniffer.State, len(built.Sniffers))
				for i, sn := range built.Sniffers {
					states[i] = sn.CaptureState()
				}
				bld := snapshot.NewBuilder()
				bld.Section(snapshot.TagNetwork, snapshot.EncodeNetworkState(built.Net.CaptureState()))
				bld.Section(snapshot.TagSniffers, snapshot.EncodeSnifferStates(states))
				snapBytes += len(bld.Finish())
				snaps++
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if frames == 0 || snaps == 0 {
			b.Fatal("empty checkpointed run")
		}
		reportEventQueueMetrics(b, built.Net, frames)
		b.ReportMetric(float64(snapBytes)/float64(snaps), "snap_bytes")
	}
}

// BenchmarkSimGrid runs the multi-cell grid end to end and reports the
// event-queue traffic behind each captured frame (dense co-channel
// cells make every contender overhear every transmission, so every
// contender's countdown freezes and resumes on each one).
func BenchmarkSimGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := DefaultGrid().Scale(0.5).Build()
		if err != nil {
			b.Fatal(err)
		}
		recs := built.Run()
		if len(recs) == 0 {
			b.Fatal("empty trace")
		}
		reportEventQueueMetrics(b, built.Net, len(recs))
	}
}

// BenchmarkSimGrid256 is the campus-scale tier (BENCH_8): the full
// 16×16 grid, 1304 nodes, spatially-culled sparse links. Alongside
// the event-queue metrics it reports the stored link density —
// row_links/node ≈ the interference neighborhood k, the O(N·k) claim
// in a number (dense would be N = 1304).
func BenchmarkSimGrid256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := Grid256().Build()
		if err != nil {
			b.Fatal(err)
		}
		recs := built.Run()
		if len(recs) == 0 {
			b.Fatal("empty trace")
		}
		reportEventQueueMetrics(b, built.Net, len(recs))
		rows, links, _ := built.Net.LinkStats()
		b.ReportMetric(float64(links)/float64(rows), "row_links/node")
	}
}
