package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wlan80211/internal/eventq"
	"wlan80211/internal/phy"
	"wlan80211/internal/sniffer"
)

func TestContainerRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Section(TagMeta, []byte("hello"))
	b.Section(TagQueue, nil)
	b.Section(TagNetwork, bytes.Repeat([]byte{0xAB}, 300))
	data := b.Finish()

	f, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Version != Version {
		t.Fatalf("version = %d, want %d", f.Version, Version)
	}
	if got := f.Tags(); !reflect.DeepEqual(got, []string{TagMeta, TagQueue, TagNetwork}) {
		t.Fatalf("tags = %v", got)
	}
	if p, ok := f.Section(TagMeta); !ok || string(p) != "hello" {
		t.Fatalf("META = %q, %v", p, ok)
	}
	if p, ok := f.Section(TagQueue); !ok || len(p) != 0 {
		t.Fatalf("EVTQ = %q, %v", p, ok)
	}
	if _, ok := f.Section(TagSniffers); ok {
		t.Fatal("absent section reported present")
	}
	if _, err := f.MustSection(TagSniffers); err == nil {
		t.Fatal("MustSection of absent section did not error")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	b := NewBuilder()
	b.Section(TagMeta, []byte("payload-bytes"))
	good := b.Finish()

	if _, err := Parse(good); err != nil {
		t.Fatalf("control parse failed: %v", err)
	}

	// Every truncation point must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := Parse(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Every single-bit flip must error (all bytes are covered by
	// magic, version, framing, or the CRC).
	for i := 0; i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[i] ^= 1 << bit
			if _, err := Parse(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
	// Version bump fails with a version error, not a checksum error.
	mut := append([]byte(nil), good...)
	mut[6] = 0x7F
	_, err := Parse(mut)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version bump error = %v", err)
	}
	// A v2 file (written before the radix event queue) is refused by
	// version, before its sections could fail the replay comparison.
	mut[6] = 2
	if _, err := Parse(mut); err == nil || !strings.Contains(err.Error(), "unsupported format version 2") {
		t.Fatalf("v2 file error = %v", err)
	}
	// Trailing garbage after a valid END is rejected.
	if _, err := Parse(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Duplicate sections are rejected.
	b2 := NewBuilder()
	b2.Section(TagMeta, nil)
	b2.Section(TagMeta, nil)
	if _, err := Parse(b2.Finish()); err == nil {
		t.Fatal("duplicate section accepted")
	}
}

func TestParseHostileLengths(t *testing.T) {
	// A section header claiming more bytes than exist must be a clean
	// truncation error, not an allocation or a panic.
	hdr := append([]byte(magic), Version, 0) // current version
	huge := append(hdr, []byte("META\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F")...)
	if _, err := Parse(huge); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile length error = %v", err)
	}
}

func TestDecCountCapsAllocation(t *testing.T) {
	var e Enc
	e.Count(1 << 40) // claims a trillion elements
	d := NewDec(e.Bytes())
	if n := d.Count(8); n != 0 || d.Err() == nil {
		t.Fatalf("hostile count: n=%d err=%v", n, d.Err())
	}
}

func TestDecFinishCatchesTrailingBytes(t *testing.T) {
	var e Enc
	e.U64(7)
	e.U8(0xEE)
	d := NewDec(e.Bytes())
	if d.U64() != 7 {
		t.Fatal("scalar mismatch")
	}
	if err := d.Finish(); err == nil {
		t.Fatal("trailing byte not caught")
	}
}

// TestQueueStateRoundTrip exercises the eventq witness through a
// queue with every interesting shape present: fired slots recycled
// through the free list, cancelled slots, events re-armed by cancel
// and reschedule (as the DCF countdown does), a RunUntil that stopped
// short of the next event, and same-instant FIFO ranks.
// The property: encode → decode → RestoreState yields a queue whose
// SaveState re-encodes to identical bytes AND whose future fire
// sequence matches the original exactly.
func TestQueueStateRoundTrip(t *testing.T) {
	// build constructs the queue and returns each event's label in
	// creation order, so a restore can map slots back to behaviours
	// (later creations override earlier ones on recycled slots).
	build := func(log *[]string) (*eventq.Queue, []eventq.Event, []string) {
		q := &eventq.Queue{}
		var evs []eventq.Event
		var labels []string
		mk := func(label string) func() {
			return func() { *log = append(*log, label) }
		}
		at := func(t phy.Micros, label string) {
			evs = append(evs, q.At(t, mk(label)))
			labels = append(labels, label)
		}
		for i := 0; i < 8; i++ {
			at(phy.Micros(100+10*i), fmt.Sprintf("ev%d", i))
		}
		// Same-instant pair to pin FIFO ranks.
		for i := 0; i < 2; i++ {
			at(500, fmt.Sprintf("tie%d", i))
		}
		q.RunUntil(115) // fires ev0, ev1 → slots recycled
		evs[2].Cancel() // cancelled slot
		// Re-arm ev3 and ev4 to t=400 (ev3 first): fresh FIFO ranks
		// at the new instant, on recycled slots.
		evs[3].Cancel()
		at(400, "ev3")
		evs[4].Cancel()
		at(400, "ev4")
		// Reuses a freed slot through the free list.
		at(120, "reused")
		return q, evs, labels
	}

	var origLog []string
	orig, origEvs, _ := build(&origLog)

	st := orig.SaveState()
	enc := EncodeQueueState(st)
	dec, err := DecodeQueueState(enc)
	if err != nil {
		t.Fatalf("DecodeQueueState: %v", err)
	}
	if !reflect.DeepEqual(st, dec) {
		t.Fatalf("state mismatch after round trip:\n  %+v\nvs\n  %+v", st, dec)
	}
	if !bytes.Equal(enc, EncodeQueueState(dec)) {
		t.Fatal("re-encode not byte-identical")
	}
	if st.Last != 110 || st.Now != 115 {
		t.Fatalf("last=%d now=%d, want 110 and 115 (RunUntil stopped short)", st.Last, st.Now)
	}
	for i := 1; i < len(st.Pending); i++ {
		a, b := st.Pending[i-1], st.Pending[i]
		if a.At > b.At || (a.At == b.At && a.Seq >= b.Seq) {
			t.Fatalf("pending list not sorted by (at, seq): %+v", st.Pending)
		}
	}

	// Restore with callbacks rebound by slot, replaying the original
	// construction on a scratch queue to learn which slot each event
	// landed in (creation order, so recycled slots take the newest
	// behaviour — exactly how a deterministic replay rebinds).
	var restLog []string
	var scratch []string
	_, tmplEvs, labels := build(&scratch)
	slotFns := map[int]func(){}
	for i, ev := range tmplEvs {
		if s := ev.Slot(); s >= 0 {
			label := labels[i]
			slotFns[int(s)] = func() { restLog = append(restLog, label) }
		}
	}
	restored, err := eventq.RestoreState(dec, func(slot int) func() {
		return slotFns[slot]
	})
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if !bytes.Equal(EncodeQueueState(restored.SaveState()), enc) {
		t.Fatal("restored queue state not byte-identical")
	}

	// Future behaviour must match: run both to completion, counters
	// included.
	origLog = origLog[:0]
	restLog = restLog[:0]
	orig.Run()
	restored.Run()
	if !reflect.DeepEqual(origLog, restLog) {
		t.Fatalf("fire sequence diverged:\noriginal: %v\nrestored: %v", origLog, restLog)
	}
	if !bytes.Equal(EncodeQueueState(orig.SaveState()), EncodeQueueState(restored.SaveState())) {
		t.Fatal("drained queues differ")
	}
	// The re-armed events fire at t=400 in re-arm order, after
	// "reused" and before the 500 ties.
	want := []string{"reused", "ev5", "ev6", "ev7", "ev3", "ev4", "tie0", "tie1"}
	if !reflect.DeepEqual(origLog, want) {
		t.Fatalf("fire sequence = %v, want %v", origLog, want)
	}

	// Handles reconstructed via Handle() keep working.
	if origEvs[0].Pending() {
		t.Fatal("fired event still pending")
	}
}

// TestRestoreStateRejectsStructuralDamage feeds RestoreState hostile
// variants of a valid state: each must come back as an error, never a
// panic or a queue that would run the clock backwards or fire a slot
// twice.
func TestRestoreStateRejectsStructuralDamage(t *testing.T) {
	q := &eventq.Queue{}
	q.At(100, func() {})
	q.At(200, func() {})
	q.At(300, func() {}).Cancel()
	q.At(50, func() {})
	q.RunUntil(60) // fires the t=50 event: now 60, last 50
	good := q.SaveState()
	if _, err := eventq.RestoreState(good, func(int) func() { return func() {} }); err != nil {
		t.Fatalf("control state rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(st *eventq.QueueState)
	}{
		{"unknown slot state", func(st *eventq.QueueState) { st.Slots[0].State = 99 }},
		{"pending without callback", func(st *eventq.QueueState) { st.Slots[0].HasFn = false }},
		{"pending idx out of range", func(st *eventq.QueueState) { st.Pending[0].Idx = 42 }},
		{"pending entry disagrees with slot", func(st *eventq.QueueState) { st.Pending[0].At = 101 }},
		{"pending count mismatch", func(st *eventq.QueueState) { st.Pending = st.Pending[:1] }},
		{"pending out of order", func(st *eventq.QueueState) {
			st.Pending[0], st.Pending[1] = st.Pending[1], st.Pending[0]
		}},
		{"pending before now", func(st *eventq.QueueState) {
			st.Slots[st.Pending[0].Idx].At = 55
			st.Pending[0].At = 55
		}},
		{"slot listed twice", func(st *eventq.QueueState) {
			st.Pending = append(st.Pending, st.Pending[len(st.Pending)-1])
		}},
		{"pending rank at next rank", func(st *eventq.QueueState) { st.Seq = st.Pending[1].Seq }},
		{"last after now", func(st *eventq.QueueState) { st.Last = st.Now + 1 }},
		{"negative last", func(st *eventq.QueueState) { st.Last = -1 }},
		{"free entry out of range", func(st *eventq.QueueState) { st.Free = append(st.Free, 99) }},
		{"free entry pending", func(st *eventq.QueueState) { st.Free = append(st.Free, st.Pending[0].Idx) }},
		{"free entry listed twice", func(st *eventq.QueueState) { st.Free = append(st.Free, st.Free[0]) }},
	}
	for _, tc := range cases {
		enc := EncodeQueueState(good)
		st, err := DecodeQueueState(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		tc.mut(&st)
		if _, err := eventq.RestoreState(st, func(int) func() { return func() {} }); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSnifferStatesRoundTrip(t *testing.T) {
	states := []sniffer.State{
		{ID: 0, Seed: 1000, RNGDraws: 12345, Seen: 10, Captured: 8, LostBitError: 2, CurSecond: 3, CurCount: 4},
		{ID: 2, Seed: 1002, RNGDraws: 1, LostHidden: 5, LostCollision: 6, LostOverload: 7},
	}
	enc := EncodeSnifferStates(states)
	dec, err := DecodeSnifferStates(enc)
	if err != nil {
		t.Fatalf("DecodeSnifferStates: %v", err)
	}
	if !reflect.DeepEqual(states, dec) {
		t.Fatalf("mismatch: %+v vs %+v", states, dec)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	if err := AtomicWriteFile(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second" {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestReadFileValidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	b := NewBuilder()
	b.Section(TagMeta, []byte("m"))
	data := b.Finish()
	if err := AtomicWriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated file accepted")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}
