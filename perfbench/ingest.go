package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/monitor"
)

// push-ingest drives wland's HTTP surface in process: monitor.NewServer
// over monitor.NewManager on a loopback listener. The input is grid9 at
// scale 1.5 streamed raw from two sniffers per channel (about half the
// records are cross-sniffer duplicates), encoded as ingest JSON before
// timing starts. Pass 1 is a closed loop: one writer connection waits
// for each reply, and for the session's backlog to stay within half
// its queue; it is what an end-to-end run repeats. Pass 2, in traced
// runs only, is an open loop at a fixed frame rate on its own session,
// with a second connection reading /metrics and /series alongside.
const (
	ingestScale = 1.5
	batchSize   = 100
	// openLoopFPS and openLoopBatches size pass 2: 1,200 batches of
	// 100 frames every 2.5 ms (3 s), so p99 has 12 samples beyond it.
	openLoopFPS     = 40000
	openLoopBatches = 1200
	queryInterval   = 50 * time.Millisecond
	// stallTimeout is how long the closed-loop writer waits on a
	// session whose pump makes no progress before it gives up.
	stallTimeout = 5 * time.Second
)

// windowCollector fills a monitor.Window from analysis events — the
// reference the sessions' windows are compared with.
type windowCollector struct{ win *monitor.Window }

func (c windowCollector) OnFrame(ev *analysis.FrameEvent) { c.win.Observe(ev) }
func (c windowCollector) OnSecond(sec int64)              { c.win.CloseSecond(sec) }
func (c windowCollector) Finalize(*analysis.Result)       {}

// refWindow is the session pipeline rebuilt from public stages without
// HTTP: Dedup → Reorder → analysis with the "util" stage plus a window
// collector, as a push session with dedup wires it.
type refWindow struct {
	win    *monitor.Window
	a      *analysis.Analyzer
	ro     *experiment.Reorder
	dd     *experiment.Dedup
	head   experiment.Sink
	frames int64 // records fed to analysis
}

func newRefWindow(tr *tracer) (*refWindow, error) {
	w := &refWindow{win: monitor.NewWindow(0)}
	var err error
	w.a, err = analysis.New(analysis.Options{
		Metrics: []string{"util"},
		Extra:   []analysis.Factory{func() analysis.Metric { return windowCollector{w.win} }},
	})
	if err != nil {
		return nil, err
	}
	feed := experiment.Sink(func(rec capture.Record) { w.frames++; w.a.Feed(rec) })
	if tr != nil {
		feed = tr.sink("analysis.feed", feed)
	}
	w.ro = experiment.NewReorder(feed)
	head := experiment.Sink(w.ro.Add)
	if tr != nil {
		head = tr.sink("reorder", head)
	}
	w.dd = experiment.NewDedup(head)
	w.head = w.dd.Add
	if tr != nil {
		w.head = tr.sink("dedup", w.head)
	}
	return w, nil
}

// finish drains the reference the way Session.Stop drains a session.
func (w *refWindow) finish(tr *tracer) {
	if tr == nil {
		w.ro.Flush()
		w.a.Result()
		return
	}
	tr.time("reorder", w.ro.Flush)
	tr.time("analysis.result", func() { w.a.Result() })
}

// ingestInput is the pre-encoded trace and its references.
type ingestInput struct {
	bodies  [][]byte // ingest request bodies, batchSize records each
	sizes   []int
	records int64
	nOpen   int        // batches in pass 2
	full    *refWindow // every record (pass 1)
	prefix  *refWindow // the first nOpen batches (pass 2)
	counts  tracedCounts
}

// appendRecord encodes one record in the ingest wire form.
func appendRecord(dst []byte, rec capture.Record) []byte {
	dst = append(dst, `{"time_us":`...)
	dst = strconv.AppendInt(dst, int64(rec.Time), 10)
	dst = append(dst, `,"rate":`...)
	dst = strconv.AppendUint(dst, uint64(rec.Rate), 10)
	dst = append(dst, `,"channel":`...)
	dst = strconv.AppendInt(dst, int64(rec.Channel), 10)
	dst = append(dst, `,"signal_dbm":`...)
	dst = strconv.AppendInt(dst, int64(rec.SignalDBm), 10)
	dst = append(dst, `,"noise_dbm":`...)
	dst = strconv.AppendInt(dst, int64(rec.NoiseDBm), 10)
	dst = append(dst, `,"orig_len":`...)
	dst = strconv.AppendInt(dst, int64(rec.OrigLen), 10)
	dst = append(dst, `,"frame_hex":"`...)
	dst = hex.AppendEncode(dst, rec.Frame)
	return append(dst, `"}`...)
}

// generate runs the simulator once and encodes its raw stream. Each
// record also feeds the reference windows as the server will decode
// it: the wire form carries no sniffer ID.
func generate(seed int64, tr *tracer) (*ingestInput, error) {
	in := &ingestInput{}
	var err error
	if in.full, err = newRefWindow(tr); err != nil {
		return nil, err
	}
	if in.prefix, err = newRefWindow(nil); err != nil {
		return nil, err
	}
	timed := func(name string, fn func()) {
		if tr != nil {
			tr.time(name, fn)
		} else {
			fn()
		}
	}
	var b *built
	timed("workload.build", func() { b, err = buildScenario("grid9", seed, ingestScale) })
	if err != nil {
		return nil, err
	}
	tap := &txCounter{}
	b.net.AddTap(tap)

	var body []byte
	n := 0
	flush := func() {
		in.bodies = append(in.bodies, append(body, "]}"...))
		in.sizes = append(in.sizes, n)
		body, n = nil, 0
	}
	encode := func(rec capture.Record) {
		if n == 0 {
			body = append(make([]byte, 0, 32<<10), `{"records":[`...)
		} else {
			body = append(body, ',')
		}
		body = appendRecord(body, rec)
		if n++; n == batchSize {
			flush()
		}
	}
	prefixHead := in.prefix.head
	if tr != nil {
		encode = tr.sink("gen.encode", encode)
		prefixHead = tr.sink("reference.prefix", prefixHead)
	}
	emit := func(rec capture.Record) {
		wire := capture.Record{
			Time: rec.Time, Rate: rec.Rate, Channel: rec.Channel,
			SignalDBm: rec.SignalDBm, NoiseDBm: rec.NoiseDBm,
			OrigLen: rec.OrigLen, Frame: rec.Frame,
		}
		if len(in.bodies) < openLoopBatches {
			prefixHead(wire)
		}
		encode(wire)
		in.full.head(wire)
		in.records++
	}
	timed("sim", func() { err = b.slices(emit, 0, nil) })
	if err != nil {
		return nil, err
	}
	if n > 0 {
		flush()
	}
	in.full.finish(tr)
	in.prefix.finish(nil)
	in.nOpen = min(openLoopBatches, len(in.bodies))

	rows, links, maxRow := b.net.LinkStats()
	in.counts = tracedCounts{
		events: b.net.EventsProcessed(), heapOps: b.net.EventHeapOps(), deferrals: b.net.EventDeferrals(),
		rows: rows, links: links, maxRow: maxRow,
		txObserved: tap.n, records: in.records,
		dedupIn: in.records, dedupDropped: in.full.dd.Dropped, dedupMaxPending: in.full.dd.MaxPending(),
		reorderMaxPending: in.full.ro.MaxPending(), analysisFrames: in.full.frames,
	}
	fmt.Printf("input: %d records in %d batches (%d in the open loop), %d duplicates\n",
		in.records, len(in.bodies), in.nOpen, in.full.dd.Dropped)
	return in, nil
}

// offHeap moves the encoded batches into one anonymous mapping outside
// the Go heap and returns its unmap. The server then shares the heap
// with nothing but the reference windows, as a deployed wland shares it
// with no client: the collector paces to the server's own live heap
// rather than to the input's.
func (in *ingestInput) offHeap() (func() error, error) {
	total := 0
	for _, b := range in.bodies {
		total += len(b)
	}
	mem, err := syscall.Mmap(-1, 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes for the input: %w", total, err)
	}
	off := 0
	for i, b := range in.bodies {
		n := copy(mem[off:], b)
		in.bodies[i] = mem[off : off+n : off+n]
		off += n
	}
	runtime.GC()
	debug.FreeOSMemory()
	fmt.Printf("input: %.1f MB encoded, held outside the Go heap\n", float64(total)/(1<<20))
	return func() error { return syscall.Munmap(mem) }, nil
}

// handlerTimes accumulates the server-side time of each request kind;
// handlers run on the server's goroutines.
type handlerTimes struct {
	mu            sync.Mutex
	ingest, query time.Duration
	queries       int64
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		h.mu.Lock()
		defer h.mu.Unlock()
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/ingest"):
			h.ingest += d
		case r.Method == http.MethodGet:
			h.query += d
			h.queries++
		}
	})
}

// take returns the accumulated times and starts over.
func (h *handlerTimes) take() (ingest, query time.Duration, queries int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ingest, query, queries = h.ingest, h.query, h.queries
	h.ingest, h.query, h.queries = 0, 0, 0
	return ingest, query, queries
}

// server is one wland HTTP surface on a loopback listener.
type server struct {
	// stalled is set when a session's pump stopped making progress;
	// close then leaves the server to the process's exit.
	stalled bool
	mgr     *monitor.Manager
	srv     *http.Server
	base    string
	cancel  context.CancelFunc
	served  chan error
	writer  *http.Client
	reader  *http.Client
}

// startServer creates the manager, the handler and the listener. wrap,
// when set, wraps the handler (the traced cycle's handler timing).
func startServer(wrap func(http.Handler) http.Handler) (*server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	mgr := monitor.NewManager(ctx, 0)
	h := monitor.NewServer(mgr)
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	s := &server{
		mgr: mgr, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(),
		cancel: cancel, served: make(chan error, 1),
		// Separate transports keep the writer and the reader on
		// connections of their own.
		writer: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		reader: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) close() error {
	if s.stalled {
		return nil
	}
	s.writer.CloseIdleConnections()
	s.reader.CloseIdleConnections()
	s.mgr.Close()
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.cancel()
	return err
}

// do sends one request and reads the whole reply.
func do(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// createSession opens a push session with dedup and returns its ID
// and the session itself, which stays readable after DELETE removes it
// from the manager.
func (s *server) createSession() (string, *monitor.Session, error) {
	code, data, err := do(s.writer, http.MethodPost, s.base+"/api/v1/sessions", []byte(`{"source":{"type":"push","dedup":true}}`))
	if err != nil {
		return "", nil, err
	}
	if code != http.StatusCreated {
		return "", nil, fmt.Errorf("creating session: HTTP %d: %s", code, data)
	}
	var v monitor.View
	if err := json.Unmarshal(data, &v); err != nil {
		return "", nil, err
	}
	sess, err := s.mgr.Get(v.ID)
	return v.ID, sess, err
}

// passOut is one ingest pass.
type passOut struct {
	wall     time.Duration // first POST until DELETE has drained
	cpu      time.Duration // process CPU time over the same span
	drain    time.Duration // the DELETE
	frames   int64         // frames posted
	accepted int64
	failed   int64 // dropped, rejected, unsent, or in non-2xx batches
	// retainedMB is the live heap the drained session holds, above
	// the heap before the pass.
	retainedMB float64
	unsent     int64 // frames not sent because the session stalled
	stalled    bool
	rtt        time.Duration    // summed client round trips of the POSTs
	lat        []float64        // per-batch ms from due time (open loop)
	late       time.Duration    // how late the open-loop generator ran
	queries    []float64        // per-query ms
	view       monitor.View     // the session after the drain
	series     []monitor.Bucket // the session's per-second buckets after the drain
}

// ingestBatch posts one batch and returns the accepted count and the
// frames that failed.
func (s *server) ingestBatch(id string, body []byte, size int) (int64, int64, error) {
	code, data, err := do(s.writer, http.MethodPost, s.base+"/api/v1/sessions/"+id+"/ingest", body)
	if err != nil {
		return 0, 0, err
	}
	if code/100 != 2 {
		return 0, int64(size), nil
	}
	var reply struct{ Accepted, Dropped, Rejected int64 }
	if err := json.Unmarshal(data, &reply); err != nil {
		return 0, 0, err
	}
	return reply.Accepted, reply.Dropped + reply.Rejected, nil
}

// pass runs one session: nBatches batches, closed loop when rate is 0
// (each batch waits for the previous reply and for the backlog to
// drain below half the queue), otherwise open loop at rate frames/s
// with the query reader running.
func (s *server) pass(in *ingestInput, nBatches int, rate float64) (passOut, error) {
	var out passOut
	base := collectedHeap()
	id, sess, err := s.createSession()
	if err != nil {
		return out, err
	}
	var (
		stop    = make(chan struct{})
		readers sync.WaitGroup
		readErr error
	)
	if rate > 0 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			tick := time.NewTicker(queryInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				for _, path := range []string{"/metrics?window=60", "/series"} {
					t0 := time.Now()
					code, _, err := do(s.reader, http.MethodGet, s.base+"/api/v1/sessions/"+id+path, nil)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("GET %s: HTTP %d", path, code)
					}
					if err != nil {
						readErr = err
						return
					}
					out.queries = append(out.queries, float64(time.Since(t0).Nanoseconds())/1e6)
				}
			}
		}()
	}

	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(batchSize) / rate * float64(time.Second))
	}
	t0, c0 := time.Now(), cpuTime()
	for i := 0; i < nBatches; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if rate > 0 {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			out.late = max(out.late, time.Since(due))
		} else if !waitForBacklog(sess) {
			for _, n := range in.sizes[i:nBatches] {
				out.unsent += int64(n)
			}
			out.frames += out.unsent
			out.failed += out.unsent
			out.stalled, s.stalled = true, true
			return out, nil
		}
		sent := time.Now()
		acc, bad, err := s.ingestBatch(id, in.bodies[i], in.sizes[i])
		if err != nil {
			close(stop)
			readers.Wait()
			return out, err
		}
		done := time.Now()
		out.rtt += done.Sub(sent)
		if rate > 0 {
			out.lat = append(out.lat, float64(done.Sub(due).Nanoseconds())/1e6)
		}
		out.frames += int64(in.sizes[i])
		out.accepted += acc
		out.failed += bad
	}
	close(stop)
	readers.Wait()
	if readErr != nil {
		return out, readErr
	}
	d0 := time.Now()
	code, data, err := do(s.writer, http.MethodDelete, s.base+"/api/v1/sessions/"+id, nil)
	if err != nil {
		return out, err
	}
	if code != http.StatusOK {
		return out, fmt.Errorf("DELETE session: HTTP %d: %s", code, data)
	}
	out.drain = time.Since(d0)
	out.wall, out.cpu = time.Since(t0), cpuTime()-c0
	out.view = sess.View()
	out.series = sess.Series(out.view.WindowSec)
	// sess is still referenced, so the collection keeps its state.
	out.retainedMB = float64(int64(collectedHeap())-int64(base)) / (1 << 20)
	runtime.KeepAlive(sess)
	return out, nil
}

// waitForBacklog holds the closed-loop writer while the session has
// more than half its queue unprocessed. A push session drops frames
// when its queue is full, and the writer's replies only say a batch
// was queued; on a host slow enough that the pump falls behind the
// handler, the writer would otherwise overrun the queue. It does not
// wait while the pump keeps up. The backlog counts the Reorder buffer
// too, so it errs towards waiting. It reports false when the session
// has processed no frame for stallTimeout.
func waitForBacklog(sess *monitor.Session) bool {
	last, since := int64(-1), time.Now()
	for {
		v := sess.View()
		if v.Accepted-v.Deduped-v.Frames <= int64(v.QueueCap/2) {
			return true
		}
		if v.Frames != last {
			last, since = v.Frames, time.Now()
		} else if time.Since(since) > stallTimeout {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkPass compares a drained session with its reference window.
func checkPass(c *checks, what string, out passOut, ref *refWindow) {
	c.ok(out.frames - out.failed)
	if out.stalled {
		c.fail(out.failed, "%s: the session processed no frame for %v; %d frames were not sent", what, stallTimeout, out.unsent)
		return
	}
	if out.failed > 0 {
		c.fail(out.failed, "%s: %d frames dropped, rejected or refused", what, out.failed)
	}
	want := ref.win.Series(ref.win.Capacity())
	switch {
	case out.view.Accepted != out.frames:
		c.fail(1, "%s: session accepted %d frames, %d were sent", what, out.view.Accepted, out.frames)
	case out.view.Deduped != ref.dd.Dropped:
		c.fail(1, "%s: session collapsed %d duplicates, the reference Dedup %d", what, out.view.Deduped, ref.dd.Dropped)
	case !reflect.DeepEqual(out.series, want):
		c.fail(1, "%s: session series (%d seconds) differs from the reference window (%d seconds)", what, len(out.series), len(want))
	default:
		c.ok(1)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cycle runs pass 1 over the whole input, then pass 2 over its first
// in.nOpen batches, each on a session of its own, and checks both.
// afterPass1, when set, runs between them.
func (s *server) cycle(c *checks, in *ingestInput, afterPass1 func()) (p1, p2 passOut, err error) {
	if p1, err = s.pass(in, len(in.bodies), 0); err != nil {
		return p1, p2, err
	}
	checkPass(c, "closed loop", p1, in.full)
	if p1.stalled {
		return p1, p2, fmt.Errorf("closed loop: the session stalled")
	}
	if afterPass1 != nil {
		afterPass1()
	}
	if p2, err = s.pass(in, in.nOpen, openLoopFPS); err != nil {
		return p1, p2, err
	}
	checkPass(c, "open loop", p2, in.prefix)
	return p1, p2, nil
}

func runPushIngest(cfg config, r *report, c *checks) error {
	if cfg.trace {
		return runPushTraced(r, c, cfg.seed)
	}

	// Set-up: manager, listener and server, plus the first session.
	// It is timed before the input exists, while the heap is small.
	var s *server
	setups, err := timeSetup(func() error {
		var err error
		if s, err = startServer(nil); err != nil {
			return err
		}
		_, _, err = s.createSession()
		return err
	}, func() error {
		if s == nil {
			return nil
		}
		return s.close()
	})
	if err != nil {
		return err
	}

	in, err := generate(cfg.seed, nil)
	if err != nil {
		return err
	}
	unmap, err := in.offHeap()
	if err != nil {
		return err
	}
	defer unmap()
	if s, err = startServer(nil); err != nil {
		return err
	}
	defer s.close()
	var cpus, walls, heaps []float64
	reps := newRepeater(cfg.seconds)
	for rep := 0; reps.next(); rep++ {
		p1, err := s.pass(in, len(in.bodies), 0)
		if err != nil {
			return err
		}
		checkPass(c, "closed loop", p1, in.full)
		if p1.stalled {
			return fmt.Errorf("closed loop: the session stalled")
		}
		cpus = append(cpus, p1.cpu.Seconds())
		walls = append(walls, p1.wall.Seconds())
		heaps = append(heaps, p1.retainedMB)
		fmt.Printf("rep %d: closed loop cpu_s=%.4f wall_s=%.4f (%.0f frames/s) drain_s=%.4f retained_heap_mb=%.4f\n",
			rep, p1.cpu.Seconds(), p1.wall.Seconds(), float64(p1.accepted)/p1.wall.Seconds(), p1.drain.Seconds(), p1.retainedMB)
	}
	fmt.Printf("setup reps=%d\n", len(setups))
	r.set("setup_s", median(setups))
	fmt.Printf("medians over %d reps: cpu_s=%.4f wall_s=%.4f\n", len(walls), median(cpus), median(walls))
	r.set("cpu_s", median(cpus))
	r.set("peak_heap_mb", median(heaps))
	return nil
}

// runPushTraced reports the per-layer numbers: the generator's
// simulator and reference pipeline spans, one untraced cycle for the
// latencies and the tracing overhead, and one cycle with every handler
// call timed.
func runPushTraced(r *report, c *checks, seed int64) error {
	gen := newTracer("generator")
	in, err := generate(seed, gen)
	if err != nil {
		return err
	}
	gen.finish()
	unmap, err := in.offHeap()
	if err != nil {
		return err
	}
	defer unmap()
	gen.write(os.Stdout)

	s, err := startServer(nil)
	if err != nil {
		return err
	}
	u1, u2, err := s.cycle(c, in, nil)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	var ht handlerTimes
	s, err = startServer(ht.wrap)
	if err != nil {
		return err
	}
	var handler time.Duration
	t1, t2, err := s.cycle(c, in, func() { handler, _, _ = ht.take() })
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, query, queries := ht.take()
	// The traced cycle's tree: pass 1 is the root; the writer's
	// round trips hold the server's handler time.
	tr := newTracer("closed-loop")
	tr.root.total, tr.root.calls = t1.wall, 1
	post := tr.root.child("http.ingest")
	post.total, post.calls = t1.rtt, int64(len(in.bodies))
	h := post.child("monitor.handler")
	h.total, h.calls = handler, int64(len(in.bodies))
	del := tr.root.child("monitor.drain")
	del.total, del.calls = t1.drain, 1
	tr.write(os.Stdout)

	fmt.Printf("walls: untraced closed loop=%.4f traced=%.4f\n", u1.wall.Seconds(), t1.wall.Seconds())
	r.set("e2e.wall_s", u1.wall.Seconds())
	r.set("e2e.cpu_s", u1.cpu.Seconds())
	r.set("e2e.frames_per_s", float64(u1.accepted)/u1.wall.Seconds())
	r.set("trace.wall_s", t1.wall.Seconds())
	r.set("trace.overhead_s", t1.wall.Seconds()-u1.wall.Seconds())
	r.set("trace.uncovered_s", t1.wall.Seconds()-tr.coveredSeconds())
	r.set("ingest.lat_p50_ms", percentile(u2.lat, 0.5))
	r.set("ingest.lat_p99_ms", percentile(u2.lat, 0.99))
	r.set("ingest.batches", float64(len(u2.lat)))
	r.set("query.lat_p50_ms", percentile(u2.queries, 0.5))
	r.set("query.count", float64(len(u2.queries)))
	r.set("gen.late_ms_max", ms(u2.late))

	r.set("monitor.handler_s", handler.Seconds())
	r.set("monitor.handler_ns_per_frame", float64(handler.Nanoseconds())/float64(t1.frames))
	r.set("monitor.query_handler_s", query.Seconds())
	r.set("monitor.queries", float64(queries))
	r.set("monitor.accepted", float64(t1.view.Accepted))
	r.set("monitor.dropped", float64(t1.view.Dropped+t2.view.Dropped))
	r.set("monitor.rejected", float64(t1.view.Rejected+t2.view.Rejected))
	r.set("monitor.deduped", float64(t1.view.Deduped))
	r.set("monitor.drain_s", t1.drain.Seconds())
	r.set("http.overhead_s", (t1.rtt - handler).Seconds())
	setCountedLayers(r, gen, in.counts)

	// The generator runs once more, untraced, so that the exact
	// counters are compared within this invocation; the untraced
	// cycle's session gives the second deduped count.
	again, err := generate(seed, nil)
	if err != nil {
		return err
	}
	first, second := in.counts.exact(), again.counts.exact()
	first["monitor.deduped"], second["monitor.deduped"] = t1.view.Deduped, u1.view.Deduped
	checkCounters(c, first, second)
	return nil
}
