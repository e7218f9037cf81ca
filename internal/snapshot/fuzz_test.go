package snapshot

import (
	"testing"

	"wlan80211/internal/sniffer"
	"wlan80211/internal/workload"
)

// FuzzParse drives the container parser — framing, the END trailer,
// the checksum and section lookup — with arbitrary bytes. The
// invariant: errors, never panics, and never allocations beyond the
// input size. The state sections are write-only witnesses and have no
// decoder to fuzz; the campaign META decoder has its own target,
// FuzzSnapshotMeta in internal/experiment. The seed corpus in
// testdata/fuzz/FuzzParse pins real snapshots, truncations, bit flips
// and version bumps; `go test` replays it on every run, so the race
// job exercises it too.
func FuzzParse(f *testing.F) {
	// Real snapshot of a mid-run network plus hand-made degenerate
	// shapes as live seeds (the checked-in corpus extends these).
	b, err := workload.DaySession().Scale(0.02).Build()
	if err != nil {
		f.Fatal(err)
	}
	b.Net.RunUntil(500_000)
	states := make([]sniffer.State, len(b.Sniffers))
	for i, sn := range b.Sniffers {
		states[i] = sn.CaptureState()
	}
	bl := NewBuilder()
	bl.Section(TagNetwork, EncodeNetworkState(b.Net.CaptureState()))
	bl.Section(TagSniffers, EncodeSnifferStates(states))
	real := bl.Finish()
	f.Add(real)
	f.Add(real[:len(real)/2])
	mut := append([]byte(nil), real...)
	mut[len(mut)/3] ^= 0x10
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte("WLSNAP"))
	f.Add([]byte("WLSNAP\x01\x00META\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add(NewBuilder().Finish())

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		// Every section of an accepted file lies inside the input.
		total := 0
		for _, tag := range []string{TagMeta, TagNetwork, TagSniffers, TagPipeline} {
			if p, err := file.MustSection(tag); err == nil {
				total += len(p)
			}
		}
		if total > len(data) {
			t.Fatalf("sections hold %d bytes of a %d-byte input", total, len(data))
		}
	})
}
