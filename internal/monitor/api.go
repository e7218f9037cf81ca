package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// NewServer builds the daemon's HTTP handler over a manager. The
// versioned surface lives under /api/v1; the original unversioned
// /api/... paths remain as compatibility aliases that serve the same
// handlers plus a `Deprecation: true` header and a `Link:
// </api/v1/...>; rel="successor-version"` pointer. Routes:
//
//	GET    /healthz                         — liveness + session count
//	GET    /api/v1/sessions                 — list sessions
//	POST   /api/v1/sessions                 — create a session (Config body)
//	GET    /api/v1/sessions/{id}            — one session
//	DELETE /api/v1/sessions/{id}            — stop and remove
//	GET    /api/v1/sessions/{id}/metrics    — windowed metrics (?window=SECONDS)
//	GET    /api/v1/sessions/{id}/series     — per-second buckets (?seconds=N)
//	GET    /api/v1/sessions/{id}/alerts     — alert status + history
//	POST   /api/v1/sessions/{id}/ingest     — push frames (push sessions);
//	                                          bodies over MaxIngestBytes get 413
//
// All responses are JSON; errors use {"error": "..."} with
// 400/404/413/429. Per-record ingest failures add structured locator
// fields ("record", "field", "value") beside the error message.
func NewServer(mgr *Manager) http.Handler {
	mux := http.NewServeMux()
	// reg registers one logical route twice: canonical under /api/v1,
	// legacy alias under /api with the deprecation headers.
	reg := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /api/v1"+path, h)
		mux.HandleFunc(method+" /api"+path, deprecated(h))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":       "ok",
			"sessions":     len(mgr.List()),
			"max_sessions": mgr.Max(),
		})
	})
	reg("GET", "/sessions", func(w http.ResponseWriter, r *http.Request) {
		sessions := mgr.List()
		views := make([]View, len(sessions))
		for i, s := range sessions {
			views[i] = s.View()
		}
		writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
	})
	reg("POST", "/sessions", func(w http.ResponseWriter, r *http.Request) {
		var cfg Config
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding config: %w", err))
			return
		}
		s, err := mgr.Create(cfg)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, s.View())
	})
	reg("GET", "/sessions/{id}", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		writeJSON(w, http.StatusOK, s.View())
	}))
	reg("DELETE", "/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := mgr.Delete(r.PathValue("id")); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deleted": r.PathValue("id")})
	})
	reg("GET", "/sessions/{id}/metrics", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		window := 0
		if q := r.URL.Query().Get("window"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n <= 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("window must be a positive integer, got %q", q))
				return
			}
			window = n
		}
		writeJSON(w, http.StatusOK, s.Metrics(window))
	}))
	reg("GET", "/sessions/{id}/series", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		n := DefaultMetricsWindowSec
		if q := r.URL.Query().Get("seconds"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("seconds must be a positive integer, got %q", q))
				return
			}
			n = v
		}
		buckets := s.Series(n)
		if buckets == nil {
			buckets = []Bucket{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"seconds": buckets})
	}))
	reg("GET", "/sessions/{id}/alerts", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		eng := s.Alerts()
		status := eng.Status()
		if status == nil {
			status = []AlertStatus{}
		}
		history := eng.History()
		if history == nil {
			history = []AlertEvent{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": status, "history": history})
	}))
	reg("POST", "/sessions/{id}/ingest", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		// Cap the request body: an oversized (or unbounded) push fails
		// with 413 once it passes MaxIngestBytes, before it can balloon
		// the daemon's memory.
		r.Body = http.MaxBytesReader(w, r.Body, MaxIngestBytes)
		d := getDecoder()
		defer putDecoder(d)
		if err := d.readBody(r.Body, r.ContentLength); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
					"error":       fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
					"limit_bytes": tooBig.Limit,
				})
				return
			}
			writeErr(w, http.StatusBadRequest, fmt.Errorf("reading records: %w", err))
			return
		}
		recs, err := d.decode()
		if err != nil {
			writeIngestErr(w, err)
			return
		}
		accepted, dropped, rejected, err := s.Ingest(recs)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"accepted": accepted, "dropped": dropped, "rejected": rejected,
		})
	}))
	return mux
}

// deprecated wraps a legacy unversioned route's handler with the
// sunset signals (RFC 8594 style): a Deprecation header and a Link to
// the same resource under /api/v1. The response body is identical —
// aliases never fork behavior.
func deprecated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", `</api/v1`+strings.TrimPrefix(r.URL.Path, "/api")+`>; rel="successor-version"`)
		h(w, r)
	}
}

// withSession resolves {id} and 404s unknown sessions.
func withSession(mgr *Manager, h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		h(w, r, s)
	}
}

// writeIngestErr answers a failed body decode with a 400. Field-level
// failures carry a structured locator so a pusher can find the
// offending record without parsing prose out of the error string.
func writeIngestErr(w http.ResponseWriter, err error) {
	var fe *fieldError
	if errors.As(err, &fe) {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":  fe.Error(),
			"record": fe.Record,
			"field":  fe.Field,
			"value":  fe.Value,
		})
		return
	}
	writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding records: %w", err))
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrMaxSessions):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
