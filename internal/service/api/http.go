// The HTTP/JSON gateway: the same Dispatcher the stdin protocol drives,
// behind a small REST surface.
//
//	POST /v1/jobs                      submit (SubmitRequest JSON body)
//	GET  /v1/jobs/{id}                 job status + terminal report
//	DELETE /v1/jobs/{id}               cancel
//	GET  /v1/reports/{app}/{options}   settled report by content address
//	                                   (two 16-hex-digit fingerprints)
//	GET  /v1/stats                     service counters
//	GET  /v1/events                    server-sent event stream
//	GET  /v1/trace/{job}               one job's Chrome trace-event JSON
//	GET  /metrics                      Prometheus text exposition
//
// Every response is JSON with an api_version field; errors are
// {"api_version":2,"error":"..."} with a matching status code. The SSE
// stream mirrors the scheduler's event order exactly — per job: queued,
// started, one sink per verdict, then a single terminal event — the
// same order the stdin protocol prints.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"backdroid/internal/obs"
	"backdroid/internal/service"
)

// MaxRequestBytes bounds one request: a POST /v1/jobs body, and one
// line of backdroidd's stdin protocol. Past it the gateway answers 413,
// so one request cannot grow the daemon's memory without bound, and a
// journaled submit stays under the journal's field cap.
const MaxRequestBytes = 64 << 10

// errorResponse is the JSON error body.
type errorResponse struct {
	APIVersion int    `json:"api_version"`
	Error      string `json:"error"`
}

// EventJSON is one SSE payload. Span, present on sink events of traced
// runs, is the id ("job/sub/pos") of the backslice span that produced
// the sink — the join key between the event stream and the exported
// trace timeline.
type EventJSON struct {
	APIVersion int       `json:"api_version"`
	Kind       string    `json:"kind"`
	ID         int64     `json:"id"`
	App        string    `json:"app"`
	Sink       *SinkJSON `json:"sink,omitempty"`
	Error      string    `json:"error,omitempty"`
	Span       string    `json:"span,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{APIVersion: Version, Error: fmt.Sprintf(format, args...)})
}

// NewHandler builds the gateway over the dispatcher.
func NewHandler(d *Dispatcher) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
			if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "submit body exceeds %d bytes", tooBig.Limit)
				return
			}
			writeError(w, http.StatusBadRequest, "bad submit body: %v", err)
			return
		}
		resp, err := d.Submit(req)
		if err != nil {
			code := http.StatusBadRequest
			if err == service.ErrClosed {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusAccepted, resp)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
			return
		}
		st, err := d.Query(QueryRequest{ID: id})
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
			return
		}
		resp, err := d.Cancel(CancelRequest{ID: id})
		if err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /v1/reports/{app}/{options}", func(w http.ResponseWriter, r *http.Request) {
		app, err1 := strconv.ParseUint(r.PathValue("app"), 16, 64)
		opt, err2 := strconv.ParseUint(r.PathValue("options"), 16, 64)
		if err1 != nil || err2 != nil {
			writeError(w, http.StatusBadRequest, "report address wants two hex fingerprints")
			return
		}
		resp, err := d.Report(ReportRequest{App: app, Options: opt})
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats(StatsRequest{}))
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.Metrics().WritePrometheus(w)
	})

	mux.HandleFunc("GET /v1/trace/{job}", func(w http.ResponseWriter, r *http.Request) {
		tr := d.Trace()
		if tr == nil {
			writeError(w, http.StatusNotFound, "tracing disabled (start the daemon with -trace)")
			return
		}
		id, err := strconv.ParseInt(r.PathValue("job"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("job"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChrome(w, tr.Filter(id))
	})

	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusNotImplemented, "streaming unsupported")
			return
		}
		sub := d.Subscribe()
		if sub == nil {
			writeError(w, http.StatusServiceUnavailable, "service shutting down")
			return
		}
		defer sub.Close()
		// A canceled request must unblock Next: closing the subscription
		// drains it and makes Next return ok=false.
		go func() {
			<-r.Context().Done()
			sub.Close()
		}()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
		for {
			ev, ok := sub.Next()
			if !ok {
				return
			}
			payload := EventJSON{
				APIVersion: Version,
				Kind:       ev.Kind.String(),
				ID:         int64(ev.Job),
				App:        ev.Name,
			}
			if ev.Kind == service.EventSink && ev.Sink != nil {
				s := ev.Sink
				payload.Span = ev.Span
				payload.Sink = &SinkJSON{
					Sink:      s.Call.Sink.Method.SootSignature(),
					Caller:    s.Call.Caller.SootSignature(),
					Line:      s.Call.Line,
					Reachable: s.Reachable,
					Insecure:  s.Insecure,
					Cached:    s.Cached,
					Reused:    s.Reused,
					Values:    s.Values,
				}
			}
			if ev.Err != nil {
				payload.Error = ev.Err.Error()
			}
			data, err := json.Marshal(payload)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", payload.Kind, data); err != nil {
				return
			}
			flusher.Flush()
		}
	})

	return mux
}
