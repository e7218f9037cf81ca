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
)

func TestContainerRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.Section(TagMeta, []byte("hello"))
	b.Section(TagSniffers, nil)
	b.Section(TagNetwork, bytes.Repeat([]byte{0xAB}, 300))
	data := b.Finish()

	f, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Version != Version {
		t.Fatalf("version = %d, want %d", f.Version, Version)
	}
	if p, err := f.MustSection(TagMeta); err != nil || string(p) != "hello" {
		t.Fatalf("META = %q, %v", p, err)
	}
	if p, err := f.MustSection(TagSniffers); err != nil || len(p) != 0 {
		t.Fatalf("SNIF = %q, %v", p, err)
	}
	if p, err := f.MustSection(TagNetwork); err != nil || !bytes.Equal(p, bytes.Repeat([]byte{0xAB}, 300)) {
		t.Fatalf("NETW = %d bytes, %v", len(p), err)
	}
	if _, err := f.MustSection(TagPipeline); err == nil {
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
	if n := d.Count(8); n != 0 {
		t.Fatalf("hostile count: n=%d", n)
	}
	if err := d.Finish(); err == nil {
		t.Fatal("hostile count not reported")
	}
}

// TestDecCountRejectsNonMinimal: a length padded with a trailing zero
// byte decodes to the same value as the minimal form, so accepting it
// would let two different payloads decode alike.
func TestDecCountRejectsNonMinimal(t *testing.T) {
	for _, b := range [][]byte{{0x85, 0x00}, {0x80, 0x80, 0x00}} {
		d := NewDec(append(b, "grid9"...))
		if s := d.Str(); s != "" || d.Finish() == nil {
			t.Fatalf("% x: non-minimal length accepted (%q)", b, s)
		}
	}
	d := NewDec([]byte{0x05, 'g', 'r', 'i', 'd', '9'})
	if s := d.Str(); s != "grid9" || d.Finish() != nil {
		t.Fatalf("minimal length: %q, %v", s, d.Finish())
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
// short of the next event, and same-instant FIFO ranks. The captured
// state must hold the pending events sorted by (time, seq) and the
// clock and bucketing base where RunUntil left them, capturing must
// not disturb the fire order, and the witness must encode the same
// bytes for the same state.
func TestQueueStateRoundTrip(t *testing.T) {
	var log []string
	q := &eventq.Queue{}
	var evs []eventq.Event
	at := func(t phy.Micros, label string) {
		evs = append(evs, q.At(t, func() { log = append(log, label) }))
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
	// Re-arm ev3 and ev4 to t=400 (ev3 first): fresh FIFO ranks at the
	// new instant, on recycled slots.
	evs[3].Cancel()
	at(400, "ev3")
	evs[4].Cancel()
	at(400, "ev4")
	// Reuses a freed slot through the free list.
	at(120, "reused")

	st := q.SaveState()
	if st.Last != 110 || st.Now != 115 {
		t.Fatalf("last=%d now=%d, want 110 and 115 (RunUntil stopped short)", st.Last, st.Now)
	}
	for i := 1; i < len(st.Pending); i++ {
		a, b := st.Pending[i-1], st.Pending[i]
		if a.At > b.At || (a.At == b.At && a.Seq >= b.Seq) {
			t.Fatalf("pending list not sorted by (at, seq): %+v", st.Pending)
		}
	}
	if !bytes.Equal(encodeQueueState(st), encodeQueueState(q.SaveState())) {
		t.Fatal("two captures of one state encode differently")
	}

	log = log[:0]
	q.Run()
	// The re-armed events fire at t=400 in re-arm order, after
	// "reused" and before the 500 ties.
	want := []string{"reused", "ev5", "ev6", "ev7", "ev3", "ev4", "tie0", "tie1"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fire sequence = %v, want %v", log, want)
	}
	if evs[0].Pending() {
		t.Fatal("fired event still pending")
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
