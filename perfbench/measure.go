package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
)

// heapPeak tracks the live Go heap over a timed region. Live bytes
// ("/gc/heap/live:bytes") change only when a GC cycle finishes
// marking, so the tracker samples once per cycle from a finalizer that
// re-arms itself, which costs nothing between collections. The
// region's result is its peak minus the live heap at its start, which
// keeps inputs prepared before the region (the ingest generator's
// encoded batches) out of the number.
type heapPeak struct {
	base    uint64
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

// gcSentinel is allocated per cycle and dropped at once; its finalizer
// runs after the next collection. The pointer field keeps it out of
// the tiny allocator, whose blocks may never be finalized.
type gcSentinel struct{ h *heapPeak }

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// collectedHeap collects garbage twice, since sync.Pool keeps a
// cycle's pooled objects for one more, and returns the live heap.
func collectedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return liveHeap()
}

// startHeapPeak collects garbage, records the live heap as the
// baseline and starts sampling.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{base: liveHeap()}
	h.peak = h.base
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(&gcSentinel{h}, func(s *gcSentinel) {
		if s.h.observe() {
			s.h.arm()
		}
	})
}

// observe records the live heap and reports whether the region is
// still open.
func (h *heapPeak) observe() bool {
	v := liveHeap()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.stopped && v > h.peak {
		h.peak = v
	}
	return !h.stopped
}

// stopMB ends the region and returns its peak live heap above the
// baseline in MiB. A final collection adds the live heap at the end
// of the region as one more sample.
func (h *heapPeak) stopMB() float64 {
	runtime.GC()
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return float64(h.peak-h.base) / (1 << 20)
}

// cpuTime returns the CPU time the process has used so far, user and
// system, summed over its threads. Unlike wall time it leaves out the
// time the host's hypervisor runs something else on the guest's vCPUs
// (steal time, up to 40% of a shared two-vCPU VM's time in some
// minutes), which would otherwise move every timing by as much.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repeater paces the repetitions of a timed region: it starts the next
// one only while it is expected to end within the budget, judged by
// the longest repetition so far, and always runs at least one.
type repeater struct {
	budget, longest time.Duration
	begin, last     time.Time
	n               int
}

func newRepeater(seconds float64) *repeater {
	return &repeater{budget: time.Duration(seconds * float64(time.Second))}
}

func (r *repeater) next() bool {
	now := time.Now()
	if r.n == 0 {
		r.begin = now
	} else {
		r.longest = max(r.longest, now.Sub(r.last))
		if now.Sub(r.begin)+r.longest > r.budget {
			return false
		}
	}
	r.last = now
	r.n++
	return true
}

// timeSetup measures the CPU time of setup at least nine times and for
// at least a second (at most 1,000 times), so that the median of small
// set-up costs is steady. Each repetition starts from a collected
// heap, so that a collection left over from the one before does not
// land in it. teardown, when set, runs unmeasured after each.
func timeSetup(setup, teardown func() error) ([]float64, error) {
	var out []float64
	for begin := time.Now(); len(out) < 9 || (time.Since(begin) < time.Second && len(out) < 1000); {
		runtime.GC()
		c0 := cpuTime()
		err := setup()
		out = append(out, (cpuTime() - c0).Seconds())
		if teardown != nil {
			if terr := teardown(); err == nil {
				err = terr
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// A span is one node of the trace tree: every call into one layer
// made under the same parent span folds into it (calls, total time),
// so a per-frame stage costs two clock reads and no allocation. The
// parent is the span open when the call starts, so a stage reached
// both from the simulator and from the final Flush lands in two nodes.
// Self time is a span's total minus its children's totals, which the
// synchronous pipeline nests strictly inside it.
type span struct {
	name   string
	parent *span
	kids   []*span
	calls  int64
	total  time.Duration
}

// tracer holds the span tree of one traced run in memory until it is
// written out. It follows one goroutine: the simulator and every
// pipeline stage it feeds run synchronously on the caller's.
type tracer struct {
	root  *span
	cur   *span
	start time.Time
}

func newTracer(root string) *tracer {
	t := &tracer{root: &span{name: root}, start: time.Now()}
	t.cur = t.root
	return t
}

// finish closes the root span.
func (t *tracer) finish() {
	t.root.total = time.Since(t.start)
	t.root.calls = 1
}

// child returns parent's child span of that name, creating it.
func (parent *span) child(name string) *span {
	for _, k := range parent.kids {
		if k.name == name {
			return k
		}
	}
	k := &span{name: name, parent: parent}
	parent.kids = append(parent.kids, k)
	return k
}

// time runs fn as one call of the named span under the open one.
func (t *tracer) time(name string, fn func()) {
	parent := t.cur
	s := parent.child(name)
	t.cur = s
	t0 := time.Now()
	fn()
	s.total += time.Since(t0)
	s.calls++
	t.cur = parent
}

// sink wraps a pipeline stage so that each record it handles is one
// call of the named span.
func (t *tracer) sink(name string, next experiment.Sink) experiment.Sink {
	return func(rec capture.Record) {
		parent := t.cur
		s := parent.child(name)
		t.cur = s
		t0 := time.Now()
		next(rec)
		s.total += time.Since(t0)
		s.calls++
		t.cur = parent
	}
}

func (s *span) self() time.Duration {
	d := s.total
	for _, k := range s.kids {
		d -= k.total
	}
	return d
}

// walk visits every span depth first.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, k := range s.kids {
		k.walk(fn)
	}
}

// selfSeconds sums the self time of every span with the given name.
func (t *tracer) selfSeconds(name string) float64 {
	var d time.Duration
	t.root.walk(func(s *span) {
		if s.name == name {
			d += s.self()
		}
	})
	return d.Seconds()
}

// calls sums the calls of every span with the given name.
func (t *tracer) calls(name string) int64 {
	var n int64
	t.root.walk(func(s *span) {
		if s.name == name {
			n += s.calls
		}
	})
	return n
}

// coveredSeconds is the traced wall time the layer spans account for:
// the root's total minus its own self time.
func (t *tracer) coveredSeconds() float64 {
	return (t.root.total - t.root.self()).Seconds()
}

// write prints the tree, one span per line with its parent.
func (t *tracer) write(w io.Writer) {
	t.root.walk(func(s *span) {
		parent := "-"
		if s.parent != nil {
			parent = s.parent.name
		}
		fmt.Fprintf(w, "span %-22s parent=%-18s calls=%-8d total_s=%.6f self_s=%.6f\n",
			s.name, parent, s.calls, s.total.Seconds(), s.self().Seconds())
	})
}
