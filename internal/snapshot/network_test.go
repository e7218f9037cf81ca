package snapshot

import (
	"bytes"
	"testing"

	"wlan80211/internal/phy"
	"wlan80211/internal/workload"
)

// TestNetworkStateRoundTrip captures a real mid-run network — nodes
// mid-backoff, transmissions in the air, countdowns pending, RNG
// streams advanced — at several instants: each capture is taken
// exactly where RunUntil stopped, and encoding it twice gives the same
// bytes (the property the replay-verified resume depends on).
func TestNetworkStateRoundTrip(t *testing.T) {
	b, err := workload.DaySession().Scale(0.05).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []phy.Micros{1_000_000, 3_141_593, 10_000_000} {
		b.Net.RunUntil(at)
		st := b.Net.CaptureState()
		if st.Now != at {
			t.Fatalf("Now = %d, want %d", st.Now, at)
		}
		if st.Queue.Now != at {
			t.Fatalf("queue Now = %d, want %d", st.Queue.Now, at)
		}
		if !bytes.Equal(EncodeNetworkState(st), EncodeNetworkState(b.Net.CaptureState())) {
			t.Fatalf("t=%d: two captures encode differently", at)
		}
	}
}

// TestCaptureStateDeterministic: two identical runs capture identical
// bytes at the same instant — the foundation of the snapshot witness.
func TestCaptureStateDeterministic(t *testing.T) {
	capture := func() []byte {
		b, err := workload.DaySession().Scale(0.05).Build()
		if err != nil {
			t.Fatal(err)
		}
		b.Net.RunUntil(5_000_000)
		return EncodeNetworkState(b.Net.CaptureState())
	}
	if !bytes.Equal(capture(), capture()) {
		t.Fatal("identical runs captured different state bytes")
	}
}

// TestCaptureStateSlicedRunMatches: running to T in two slices
// captures the same bytes as running straight to T — checkpointing
// must not perturb the state it witnesses.
func TestCaptureStateSlicedRunMatches(t *testing.T) {
	straight, err := workload.DaySession().Scale(0.05).Build()
	if err != nil {
		t.Fatal(err)
	}
	straight.Net.RunUntil(6_000_000)

	sliced, err := workload.DaySession().Scale(0.05).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []phy.Micros{2_000_000, 4_000_000, 6_000_000} {
		sliced.Net.RunUntil(at)
		_ = sliced.Net.CaptureState() // capture itself must not perturb
	}
	a := EncodeNetworkState(straight.Net.CaptureState())
	b2 := EncodeNetworkState(sliced.Net.CaptureState())
	if !bytes.Equal(a, b2) {
		t.Fatal("sliced run captured different state than straight run")
	}
}
