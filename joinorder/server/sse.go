package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"milpjoin/joinorder"
)

// sseEventBuffer bounds the relay channel between solver callbacks and
// the HTTP writer. Callbacks must never block the solve (some run under
// search locks), so a full buffer drops the event instead — the anytime
// state is monotone, so a later event subsumes a dropped one.
const sseEventBuffer = 512

// handleStream is POST /v1/optimize/stream: the same request as
// /v1/optimize, answered as a Server-Sent-Events stream. Every solver and
// cache event becomes one SSE event named after its kind, carrying the
// event's JSON; the stream ends with a "result" event holding the
// OptimizeResponse (or an "error" event). Disconnecting cancels the
// request context, which threads into the solve — the solver unwinds
// promptly and the worker slot frees.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &httpError{status: http.StatusInternalServerError, code: CodeInternal, msg: "response writer does not support streaming"})
		return
	}
	pr, herr := s.gateHTTP(w, r)
	if herr != nil {
		writeError(w, herr)
		return
	}
	defer pr.releaseBody()
	s.ctr.streams.Add(1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // reverse proxies: do not buffer
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// The solve runs concurrently with the writer loop. Callbacks are
	// serialised by the emitter; a full channel drops (never blocks) so a
	// slow reader cannot stall solver goroutines.
	events := make(chan joinorder.Event, sseEventBuffer)
	type outcome struct {
		resp *OptimizeResponse
		herr *httpError
	}
	done := make(chan outcome, 1)
	go func() {
		resp, herr := s.serve(r.Context(), pr, func(ev joinorder.Event) {
			select {
			case events <- ev:
			default:
				s.ctr.eventsDrop.Add(1)
			}
		})
		close(events)
		done <- outcome{resp, herr}
	}()

	for ev := range events {
		if err := writeSSE(w, ev.Kind.String(), ev); err != nil {
			// Client gone; keep draining so the solve's cancellation
			// (via r.Context()) is observed and the goroutine exits.
			continue
		}
		s.ctr.eventsSent.Add(1)
		fl.Flush()
	}
	out := <-done
	if out.herr != nil {
		// The "error" event's data is the same ErrorEnvelope a non-2xx
		// unary response carries, plus the HTTP status the request would
		// have received (the SSE stream itself is already committed 200).
		writeSSE(w, "error", struct { //nolint:errcheck // client may be gone
			ErrorEnvelope
			Status int `json:"status"`
		}{
			ErrorEnvelope: ErrorEnvelope{Err: *out.herr.detail()},
			Status:        out.herr.status,
		})
	} else {
		writeSSE(w, "result", out.resp) //nolint:errcheck // client may be gone
	}
	fl.Flush()
}

// writeSSE writes one Server-Sent Event with the JSON encoding of v as
// its data line.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
