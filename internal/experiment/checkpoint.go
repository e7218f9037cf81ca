package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/sim"
	"wlan80211/internal/snapshot"
	"wlan80211/internal/sniffer"
	"wlan80211/internal/workload"
)

// Checkpointable is a Run whose stream can be sliced at sim-time
// boundaries and whose full simulator state can be captured between
// events. All built-in scenario shapes implement it: session
// (day/plenary) and grid runs slice their single network at interval
// boundaries; sweep runs do the same; ladder runs chain several
// simulators and slice each rung at interval boundaries plus the rung
// ends, reporting slice times on the ladder's global clock — so a
// worker crash mid-ladder resumes (replay-verifies against the last
// snapshot) instead of silently rerunning the whole shard.
type Checkpointable interface {
	Run
	// StreamSlices streams exactly like Stream — the event sequence and
	// emitted records are bit-identical — but pauses between events at
	// each interval boundary to call atSlice with the current sim time.
	// An atSlice error aborts the run.
	StreamSlices(sink Sink, interval phy.Micros, atSlice func(t phy.Micros) error) error
	// CaptureState returns the run's complete simulator and sniffer
	// state (see sim.NetworkState for the witness semantics).
	CaptureState() (*sim.NetworkState, []sniffer.State)
}

func (r sessionRun) StreamSlices(sink Sink, interval phy.Micros, atSlice func(phy.Micros) error) error {
	return r.b.RunStreamSlices(sink, interval, atSlice)
}

func (r sessionRun) CaptureState() (*sim.NetworkState, []sniffer.State) {
	states := make([]sniffer.State, len(r.b.Sniffers))
	for i, sn := range r.b.Sniffers {
		states[i] = sn.CaptureState()
	}
	return r.b.Net.CaptureState(), states
}

func (r gridRun) StreamSlices(sink Sink, interval phy.Micros, atSlice func(phy.Micros) error) error {
	return r.b.RunStreamSlices(sink, interval, atSlice)
}

func (r gridRun) CaptureState() (*sim.NetworkState, []sniffer.State) {
	states := make([]sniffer.State, len(r.b.Sniffers))
	for i, sn := range r.b.Sniffers {
		states[i] = sn.CaptureState()
	}
	return r.b.Net.CaptureState(), states
}

// StreamSlices implements Checkpointable for the single-cell sweep:
// build, then advance the one network in interval steps, exactly like
// the session scenarios.
func (r *sweepRun) StreamSlices(sink Sink, interval phy.Micros, atSlice func(phy.Micros) error) error {
	net, sn := r.s.Build()
	r.net, r.sn = net, sn
	sn.SetEmit(sink)
	total := phy.Micros(r.s.DurationSec()) * phy.MicrosPerSecond
	return workload.RunSlices(net, total, interval, atSlice)
}

func (r *sweepRun) CaptureState() (*sim.NetworkState, []sniffer.State) {
	return r.net.CaptureState(), []sniffer.State{r.sn.CaptureState()}
}

// StreamSlices implements Checkpointable for ladders. Each rung is
// sliced at interval boundaries within its own epoch (interval <= 0
// slices only at rung ends), and slice times are reported on the
// ladder's global clock — shift + local t — so they are strictly
// increasing across rungs and a resume replays to exactly the same
// instant. The emitted stream is bit-identical to Stream: the time
// shift is the same, and slicing is invisible to each rung's
// simulation (see workload.RunSlices).
func (r *ladderRun) StreamSlices(sink Sink, interval phy.Micros, atSlice func(phy.Micros) error) error {
	var offset phy.Micros
	for _, sw := range r.ladder {
		shift := offset
		net, sn := sw.Build()
		r.net, r.sn = net, sn
		sn.SetEmit(func(rec capture.Record) {
			rec.Time += shift
			sink(rec)
		})
		total := phy.Micros(sw.DurationSec()) * phy.MicrosPerSecond
		err := workload.RunSlices(net, total, interval, func(t phy.Micros) error {
			return atSlice(shift + t)
		})
		if err != nil {
			return err
		}
		offset += phy.Micros(sw.DurationSec()+1) * phy.MicrosPerSecond
	}
	return nil
}

// CaptureState returns the current rung's state. A ladder snapshot
// taken at a global slice instant t witnesses the rung live at t;
// replay rebuilds the earlier rungs deterministically and passes
// through the identical state at the identical instant.
func (r *ladderRun) CaptureState() (*sim.NetworkState, []sniffer.State) {
	return r.net.CaptureState(), []sniffer.State{r.sn.CaptureState()}
}

// TraceHasher is a pass-through pipeline stage that folds every record
// into a running order-sensitive sha256 chain (digest_i =
// sha256(digest_{i-1} || record_i)). Campaigns insert it between the
// reorder release and the analyzer, so each run's final Sum is a
// content hash of the exact analyzed record sequence — the value the
// resume tests compare bit for bit. The intermediate fold is plain
// bytes, so a checkpoint can store it as a stream-prefix witness.
type TraceHasher struct {
	sink Sink
	n    uint64
	fold [sha256.Size]byte
	buf  []byte
}

// NewTraceHasher creates a hashing stage feeding sink.
func NewTraceHasher(sink Sink) *TraceHasher {
	return &TraceHasher{sink: sink}
}

// Add folds rec into the chain and forwards it.
func (t *TraceHasher) Add(rec capture.Record) {
	b := append(t.buf[:0], t.fold[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Time))
	b = binary.LittleEndian.AppendUint16(b, uint16(rec.Rate))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Channel))
	b = append(b, byte(rec.SignalDBm), byte(rec.NoiseDBm))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.SnifferID))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.OrigLen))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(rec.Frame)))
	b = append(b, rec.Frame...)
	t.fold = sha256.Sum256(b)
	t.buf = b
	t.n++
	t.sink(rec)
}

// Count returns how many records have been folded.
func (t *TraceHasher) Count() uint64 { return t.n }

// Sum returns the chain digest so far as hex. After the stream ends
// this is the run's trace hash.
func (t *TraceHasher) Sum() string { return hex.EncodeToString(t.fold[:]) }

// captureWitness folds the reorder stage's buffered state — records
// added but not yet released — into the pipeline witness: counters
// plus an order-sensitive fnv fold over the heap array (whose layout
// is a pure function of the record stream, hence replay-stable).
func (r *Reorder) captureWitness(e *snapshot.Enc) {
	e.I64(r.watermark)
	e.U64(r.seq)
	e.Int(r.maxPending)
	e.Int(len(r.heap))
	h := uint64(14695981039346656037)
	for i := range r.heap {
		p := &r.heap[i]
		h = fnv1aWords(h, uint64(p.rec.Time), uint64(p.rec.SnifferID), p.seq, uint64(len(p.rec.Frame)))
		h = fnv1aFold(h, p.rec.Frame)
	}
	e.U64(h)
}

// captureWitness folds the dedup window's live entries the same way.
func (d *Dedup) captureWitness(e *snapshot.Enc) {
	e.I64(d.watermark)
	e.I64(d.Dropped)
	e.Int(d.maxPending)
	e.Int(len(d.window) - d.head)
	h := uint64(14695981039346656037)
	for i := d.head; i < len(d.window); i++ {
		en := &d.window[i]
		h = fnv1aWords(h, uint64(en.time), uint64(en.channel), uint64(en.rate), en.hash)
		h = fnv1aFold(h, en.buf)
	}
	e.U64(h)
}

// fnv1aFold continues an fnv-1a hash over b.
func fnv1aFold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// fnv1aWords continues an fnv-1a hash over each word's 8
// little-endian bytes, in order.
func fnv1aWords(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 64; i += 8 {
			h ^= w >> i & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// encodePipeline builds the PIPE section: the analysis pipeline's
// position in the stream — trace-hash chain, analyzer progress
// counters, reorder heap, and (when present) dedup window.
func encodePipeline(th *TraceHasher, a *analysis.Analyzer, ro *Reorder, dd *Dedup) []byte {
	var e snapshot.Enc
	e.U64(th.n)
	e.Blob(th.fold[:])
	snap := a.Snapshot()
	e.I64(snap.Frames)
	e.I64(snap.ParseErrors)
	e.Int(snap.Channels)
	e.I64(snap.LastTime)
	ro.captureWitness(&e)
	e.Bool(dd != nil)
	if dd != nil {
		dd.captureWitness(&e)
	}
	return e.Bytes()
}
