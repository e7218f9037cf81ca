package experiment

import (
	"bytes"
	"testing"

	"wlan80211/internal/phy"
	"wlan80211/internal/snapshot"
)

// FuzzSnapshotMeta drives the one section decoder that runs on disk
// bytes: a resume parses each run's snapshot file and decodes its META
// section to tell whether the file belongs to the run. The input is a
// META payload, framed in a container before snapshot.Parse →
// decodeMeta (the container's CRC would otherwise stop nearly every
// mutation inside Parse, which FuzzParse in internal/snapshot covers).
// Hostile input must come back as an error, never a panic, and every
// accepted META must re-encode byte-identically through encodeMeta.
// The seed corpus in testdata/fuzz/FuzzSnapshotMeta replays in plain
// `go test`.
func FuzzSnapshotMeta(f *testing.F) {
	f.Add(encodeMeta(snapMeta{
		Name: "grid9", Seed: 1, Scale: 1, RunIdx: 2,
		Interval: 2 * phy.MicrosPerSecond, SimTime: 4 * phy.MicrosPerSecond, Checkpoint: 1,
	}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b := snapshot.NewBuilder()
		b.Section(snapshot.TagMeta, payload)
		file, err := snapshot.Parse(b.Finish())
		if err != nil {
			t.Fatalf("container around a %d-byte META rejected: %v", len(payload), err)
		}
		m, err := decodeMeta(file)
		if err != nil {
			return
		}
		if got := encodeMeta(m); !bytes.Equal(got, payload) {
			t.Fatalf("META %+v re-encodes as\n%x\nnot\n%x", m, got, payload)
		}
	})
}
