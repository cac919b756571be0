package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"dualradio/internal/report"
	"dualradio/internal/scenario"
)

// maxBodyBytes bounds submission bodies; a spec is a few hundred bytes and
// a sweep a few thousand.
const maxBodyBytes = 1 << 20

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.fleet.Mount(s.mux)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/report", s.handleSweepReport)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/stats", s.handleSweepStats)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitStatus maps a Submit/SubmitSweep error to its HTTP status: full
// queue 503, admission budget 429, everything else (parse/validate) 400.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOverBudget):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// handleHealthz is the liveness probe. Every number the service reports
// lives on /metrics; /healthz adds only what a sample value cannot carry:
// the spec version and the active fault rules.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := map[string]any{
		"status":       "ok",
		"spec_version": scenario.SpecVersion,
	}
	if s.cfg.Fault != nil {
		h["fault_rules"] = s.cfg.Fault.Rules()
	}
	writeJSON(w, http.StatusOK, h)
}

// handleSweepStats serves per-phase timing rollups over the sweep's
// terminal children (see Sweep.Stats).
func (s *Server) handleSweepStats(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sw.Stats())
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"presets": scenario.Presets()})
}

// submitRequest is the POST /v1/jobs body: either a preset reference or an
// inline spec. For convenience the body may also be a bare spec object (its
// "algorithm" field distinguishes it). The nested spec stays raw here so it
// goes through ParseSpec's strict decoding — typos must not be silently
// dropped just because the spec arrived wrapped.
type submitRequest struct {
	Preset string          `json:"preset,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	return body, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req submitRequest
	// The wrapper form is lenient (a bare spec has fields the wrapper does
	// not know); the bare-spec fallback is strict.
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	var spec scenario.Spec
	var err error
	switch {
	case req.Preset != "" && req.Spec != nil:
		writeError(w, http.StatusBadRequest, "give either preset or spec, not both")
		return
	case req.Preset != "":
		var ok bool
		if spec, ok = scenario.PresetByName(req.Preset); !ok {
			writeError(w, http.StatusBadRequest, "unknown preset %q", req.Preset)
			return
		}
	case req.Spec != nil:
		if spec, err = scenario.ParseSpec(req.Spec); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	default:
		if spec, err = scenario.ParseSpec(body); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	job, err := s.Submit(spec)
	if err != nil {
		writeError(w, submitStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.View(false))
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	sw, err := scenario.ParseSweep(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	swp, err := s.SubmitSweep(sw)
	if err != nil {
		writeError(w, submitStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, swp.View(true))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	sweeps := s.Sweeps()
	views := make([]SweepView, 0, len(sweeps))
	for _, sw := range sweeps {
		views = append(views, sw.View(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": views})
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return job, true
}

func (s *Server) sweepOr404(w http.ResponseWriter, r *http.Request) (*Sweep, bool) {
	id := r.PathValue("id")
	sw, ok := s.Sweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", id)
		return nil, false
	}
	return sw, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.View(true))
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sw.View(true))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.View(false))
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepOr404(w, r)
	if !ok {
		return
	}
	sw.CancelChildren()
	writeJSON(w, http.StatusOK, sw.View(true))
}

// streamNDJSON drives an NDJSON event stream: replay history, follow live
// events, end after the terminal event. source mirrors Job.eventsSince —
// it returns pending events (already JSON-marshalable), whether the
// subject is terminal, and a wake channel to wait on when idle. The
// request context is observed both while waiting and between batches, so a
// disconnected client stops the handler instead of leaving it writing into
// a dead connection — event producers are never blocked either way, since
// events live in the subject's log, not in a channel to this handler.
func streamNDJSON(w http.ResponseWriter, r *http.Request, source func(from int) ([]any, bool, <-chan struct{})) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		events, terminal, wake := source(next)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return // client gone
			}
		}
		next += len(events)
		if len(events) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			if r.Context().Err() != nil {
				return
			}
			continue // drain before deciding the stream is over
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// handleJobEvents streams the job's progress as NDJSON: the full event
// history first, then live events as trials complete, ending after the
// terminal event (or when the client disconnects).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	streamNDJSON(w, r, func(from int) ([]any, bool, <-chan struct{}) {
		events, terminal, wake := job.eventsSince(from)
		out := make([]any, len(events))
		for i, e := range events {
			out[i] = e
		}
		return out, terminal, wake
	})
}

// handleSweepReport renders a sweep as a pivot report: child aggregates
// onto the sweep's axes, rows × columns of the chosen metric. Query
// parameters: metric (default mean_rounds; see report.Metrics), rows/cols
// (axis names; default first/second axis), format (csv, json, or table;
// default table). A sweep with unfinished, failed, or cancelled children
// is not reportable and answers 409 — unless partial=1, which pivots the
// completed children only (absent cells render empty) and labels the
// response with X-Complete-Children / X-Total-Children headers so callers
// can tell how much of the grid they are looking at.
func (s *Server) handleSweepReport(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepOr404(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	partial := q.Get("partial") == "1" || q.Get("partial") == "true"
	exp, aggs, present, done, err := sw.reportData(partial)
	if err != nil {
		writeError(w, http.StatusConflict, "sweep not reportable: %v", err)
		return
	}
	opts := report.Options{
		Metric: q.Get("metric"),
		Rows:   q.Get("rows"),
		Cols:   q.Get("cols"),
	}
	if partial {
		opts.Present = present
		w.Header().Set("X-Complete-Children", strconv.Itoa(done))
		w.Header().Set("X-Total-Children", strconv.Itoa(len(present)))
	}
	rep, err := report.Build(exp, aggs, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch format := q.Get("format"); format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_, _ = io.WriteString(w, rep.CSV())
	case "json":
		writeJSON(w, http.StatusOK, rep)
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, rep.Table())
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want csv|json|table)", format)
	}
}

// handleSweepEvents streams the sweep's child completions as NDJSON:
// "queued", one "child" per terminal child in completion order, then
// "done" once the whole grid is terminal.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepOr404(w, r)
	if !ok {
		return
	}
	streamNDJSON(w, r, func(from int) ([]any, bool, <-chan struct{}) {
		events, terminal, wake := sw.eventsSince(from)
		out := make([]any, len(events))
		for i, e := range events {
			out[i] = e
		}
		return out, terminal, wake
	})
}
