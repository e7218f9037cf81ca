package monitor

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// oracleRecord is the tagged struct the ingest handler used to decode
// with encoding/json. It and oracleDecode are the reference
// ingestDecoder is held to.
type oracleRecord struct {
	TimeUS    int64  `json:"time_us"`
	Rate      uint16 `json:"rate"`
	Channel   int    `json:"channel"`
	SignalDBm int8   `json:"signal_dbm,omitempty"`
	NoiseDBm  int8   `json:"noise_dbm,omitempty"`
	OrigLen   int    `json:"orig_len,omitempty"`
	FrameHex  string `json:"frame_hex"`
}

// oracleDecode is the handler's former decode: json.Decoder into the
// struct, then hex.DecodeString per record. On failure it returns the
// reply the handler wrote, and whether it was the structured one.
func oracleDecode(body []byte) (recs []capture.Record, reply *httptest.ResponseRecorder, structured bool) {
	var v struct {
		Records []oracleRecord `json:"records"`
	}
	reply = httptest.NewRecorder()
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
		writeErr(reply, http.StatusBadRequest, fmt.Errorf("decoding records: %w", err))
		return nil, reply, false
	}
	recs = make([]capture.Record, 0, len(v.Records))
	for i, ir := range v.Records {
		frame, err := hex.DecodeString(ir.FrameHex)
		if err != nil {
			value := ir.FrameHex
			if len(value) > 64 {
				value = value[:64] + "…"
			}
			writeJSON(reply, http.StatusBadRequest, map[string]any{
				"error":  fmt.Sprintf("record %d: frame_hex: %v", i, err),
				"record": i,
				"field":  "frame_hex",
				"value":  value,
			})
			return nil, reply, true
		}
		orig := ir.OrigLen
		if orig == 0 {
			orig = len(frame)
		}
		recs = append(recs, capture.Record{
			Time: phy.Micros(ir.TimeUS), Rate: phy.Rate(ir.Rate), Channel: phy.Channel(ir.Channel),
			SignalDBm: ir.SignalDBm, NoiseDBm: ir.NoiseDBm, OrigLen: orig, Frame: frame,
		})
	}
	return recs, nil, false
}

// decodeBody runs body through a fresh decoder the way the handler
// does, returning the records or the error reply.
func decodeBody(body []byte) (recs []capture.Record, reply *httptest.ResponseRecorder, structured bool) {
	d := new(ingestDecoder)
	if err := d.readBody(bytes.NewReader(body), int64(len(body))); err != nil {
		panic(err) // a bytes.Reader does not fail
	}
	recs, err := d.decode()
	if err == nil {
		return recs, nil, false
	}
	reply = httptest.NewRecorder()
	writeIngestErr(reply, err)
	var fe *fieldError
	return nil, reply, errors.As(err, &fe)
}

// checkAgainstOracle fails t unless ingestDecoder and the
// encoding/json oracle agree on body: both accept with deep-equal
// records, both fail with a byte-equal structured frame_hex reply, or
// both fail otherwise with a 400.
func checkAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	want, wantReply, wantStructured := oracleDecode(body)
	got, gotReply, gotStructured := decodeBody(body)
	switch {
	case (wantReply == nil) != (gotReply == nil):
		t.Fatalf("oracle accepted=%v, decoder accepted=%v\nbody: %.300q\noracle: %s\ndecoder: %s",
			wantReply == nil, gotReply == nil, body, replyText(wantReply), replyText(gotReply))
	case wantReply == nil:
		if len(got) != len(want) {
			t.Fatalf("decoded %d records, oracle %d\nbody: %.300q", len(got), len(want), body)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("record %d:\n  got  %+v\n  want %+v\nbody: %.300q", i, got[i], want[i], body)
			}
		}
	case wantStructured != gotStructured:
		t.Fatalf("structured reply: oracle %v, decoder %v\nbody: %.300q\noracle: %s\ndecoder: %s",
			wantStructured, gotStructured, body, replyText(wantReply), replyText(gotReply))
	case gotReply.Code != http.StatusBadRequest || wantReply.Code != http.StatusBadRequest:
		t.Fatalf("status: oracle %d, decoder %d, want 400", wantReply.Code, gotReply.Code)
	case wantStructured && !bytes.Equal(gotReply.Body.Bytes(), wantReply.Body.Bytes()):
		t.Fatalf("structured reply differs:\n  got  %s\n  want %s", replyText(gotReply), replyText(wantReply))
	}
}

func replyText(r *httptest.ResponseRecorder) string {
	if r == nil {
		return "(accepted)"
	}
	return fmt.Sprintf("%d %.300s", r.Code, r.Body.String())
}

// FuzzIngestDecode holds the single-pass decoder to encoding/json. Its
// seed corpus (testdata/fuzz/FuzzIngestDecode) names one decoding
// rule per file and replays as ordinary subtests under go test.
func FuzzIngestDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
	})
}

// appendWire encodes rec in the ingest wire form perfbench posts.
func appendWire(dst []byte, rec capture.Record) []byte {
	dst = append(dst, `{"time_us":`...)
	dst = strconv.AppendInt(dst, rec.Time, 10)
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

func wireBatch(recs []capture.Record) []byte {
	body := []byte(`{"records":[`)
	for i, rec := range recs {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendWire(body, rec)
	}
	return append(body, "]}"...)
}

// testRecords returns n records of DATA/ACK exchanges with 200-byte
// payloads: about 330 wire bytes per record, near perfbench's grid9
// batches.
func testRecords(n int) []capture.Record {
	var recs []capture.Record
	t := phy.Micros(1000)
	for seq := uint16(0); len(recs) < n; seq++ {
		recs, t = dataAck(recs, t, 200, phy.Rate11Mbps, seq, seq%8 == 3)
		t += phy.DIFS
	}
	return recs[:n]
}

// raceEnabled scales wall-time budgets under the race detector.
var raceEnabled = false

// TestIngestDecodeBudgets gates the decoder with host-independent
// counters: allocations per batch, and bytes allocated per input byte
// on hostile bodies, each of which must also finish within a stated
// wall-time bound and get the reply the encoding/json decoder gave.
func TestIngestDecodeBudgets(t *testing.T) {
	body := wireBatch(testRecords(100))
	d := new(ingestDecoder)
	d.body = body
	allocs := testing.AllocsPerRun(50, func() {
		if recs, err := d.decode(); err != nil || len(recs) != 100 {
			t.Fatalf("decode: %d records, %v", len(recs), err)
		}
	})
	// The frame arena and the record slice; about 228 with encoding/json.
	if allocs > 4 {
		t.Fatalf("decoding a 100-record batch: %.0f allocations, budget 4", allocs)
	}

	nested := strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth)
	giantHex := strings.Repeat("ab", (MaxIngestBytes-64)/2)
	empties := strings.Repeat("{},", 1_000_000)
	cases := []struct {
		name string
		body string
		// code and reply: the handler's answer on a push session.
		code  int
		reply string
		// wall bounds the handler call on the CI runner; perByte
		// bounds bytes allocated per body byte by the decode.
		wall    time.Duration
		perByte float64
	}{
		{
			// One level past the limit inside an unknown key.
			name: "nesting-10001", body: `{"x":` + nested + `}`,
			code: http.StatusBadRequest, wall: 2 * time.Second, perByte: 4,
		},
		{
			name: "giant-frame-hex", body: `{"records":[{"frame_hex":"` + giantHex + `"}]}`,
			code: http.StatusOK, reply: `{"accepted":0,"dropped":0,"rejected":1}`,
			wall: 2 * time.Second, perByte: 1,
		},
		{
			name: "million-empty-records", body: `{"records":[` + empties + `{}]}`,
			code: http.StatusOK, reply: `{"accepted":0,"dropped":0,"rejected":1000001}`,
			wall: 2 * time.Second, perByte: 64,
		},
	}
	mgr := NewManager(context.Background(), 1)
	defer mgr.Close()
	sess, err := mgr.Create(Config{Source: SourceConfig{Type: SourcePush}})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(mgr)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.body) > MaxIngestBytes {
				t.Fatalf("body is %d bytes, over the cap", len(tc.body))
			}
			req := httptest.NewRequest("POST", "/api/v1/sessions/"+sess.ID+"/ingest", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(w, req)
			wall := time.Since(start)
			if w.Code != tc.code {
				t.Fatalf("status %d, want %d: %.200s", w.Code, tc.code, w.Body.String())
			}
			if tc.reply != "" {
				var got, want any
				if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal([]byte(tc.reply), &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("reply %s, want %s", w.Body.String(), tc.reply)
				}
			}
			limit := tc.wall
			if raceEnabled {
				limit *= 10
			}
			if wall > limit {
				t.Fatalf("handler took %v, bound %v", wall, limit)
			}

			d := new(ingestDecoder)
			d.body = []byte(tc.body)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = d.decode()
			runtime.ReadMemStats(&after)
			perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tc.body))
			if perByte > tc.perByte {
				t.Fatalf("decode allocated %.2f bytes per input byte, budget %.0f", perByte, tc.perByte)
			}
			t.Logf("%d-byte body: handler %v, decode %.2f B allocated per input byte", len(tc.body), wall, perByte)
		})
	}
}

// reportPerRecord attaches the per-record and per-batch metrics the
// ingest benchmarks share.
func reportPerRecord(b *testing.B, elapsed time.Duration, before, after *runtime.MemStats, batch int) {
	records := float64(b.N * batch)
	b.ReportMetric(float64(elapsed.Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/batch")
}

// BenchmarkIngestDecode times the body decode alone on 100-record
// batches in perfbench's wire form.
func BenchmarkIngestDecode(b *testing.B) {
	const batch = 100
	body := wireBatch(testRecords(batch))
	d := new(ingestDecoder)
	d.body = body
	b.SetBytes(int64(len(body)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for b.Loop() {
		if _, err := d.decode(); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	reportPerRecord(b, elapsed, &before, &after, batch)
}

// BenchmarkIngestHandler times POST .../ingest through the HTTP
// handler on a push session with dedup: body read, decode, enqueue and
// reply. The session's pump drains the queue on its own goroutine;
// after the first pass over the batches, records repeat and collapse
// there, which the handler does not see.
func BenchmarkIngestHandler(b *testing.B) {
	const batch, nBatches = 100, 64
	recs := testRecords(batch * nBatches)
	bodies := make([][]byte, nBatches)
	for i := range bodies {
		bodies[i] = wireBatch(recs[i*batch : (i+1)*batch])
	}
	mgr := NewManager(context.Background(), 1)
	defer mgr.Close()
	sess, err := mgr.Create(Config{Source: SourceConfig{Type: SourcePush, Dedup: true}})
	if err != nil {
		b.Fatal(err)
	}
	h := NewServer(mgr)
	url := "/api/v1/sessions/" + sess.ID + "/ingest"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	i := 0
	for b.Loop() {
		req := httptest.NewRequest("POST", url, bytes.NewReader(bodies[i%nBatches]))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("ingest: %d %s", w.Code, w.Body.String())
		}
		i++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	reportPerRecord(b, elapsed, &before, &after, batch)
}
