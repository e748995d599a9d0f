package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"

	"plurality/internal/trace"
)

// HTTP conventions of the conserve API, shared by server and clients.
const (
	// CacheHeader reports whether a /run response was served from the
	// result cache ("hit") or computed ("miss"). It is a header — not
	// a body field — so cold and cached bodies stay byte-identical.
	CacheHeader = "X-Conserve-Cache"
	// RetryAfterMinSeconds and RetryAfterMaxSeconds bound the
	// Retry-After hint sent with 429. The value is jittered uniformly
	// in [min, max] so a burst of rejected clients does not retry in
	// lockstep and re-create the very overload that rejected them.
	RetryAfterMinSeconds = 1
	RetryAfterMaxSeconds = 3
)

// NewServer wraps a Runner into the conserve HTTP handler:
//
//	POST /run          execute a Request; ?detach=1 returns 202 + job;
//	                   ?trace=1 requests a round trace (default spec if
//	                   the body has none) and streams it as NDJSON
//	POST /sweep        execute a SweepRequest, streaming NDJSON points
//	GET  /jobs/{id}    poll a detached job
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus-style counters
//
// Invalid requests get 400, a full queue 429 with Retry-After, and
// /run bodies are canonical: byte-identical cold, cached, or via the
// CLIs' -json/-ndjson modes.
func NewServer(rn *Runner) http.Handler {
	return NewServerWith(rn, Extra{})
}

// Extra extends the conserve handler for cluster mode without the
// service layer importing the cluster package: extra route prefixes
// (the /cluster/* replication and shard endpoints) and extra /metrics
// lines (cluster leadership, failed shard dispatches, ledger hits) appended
// after the runner's own counters.
type Extra struct {
	// Routes maps mux patterns (e.g. "/cluster/") to their handlers.
	Routes map[string]http.Handler
	// Metrics, when non-nil, writes additional Prometheus-style lines
	// after the runner metrics.
	Metrics func(w io.Writer)
}

// NewServerWith is NewServer plus cluster extensions.
func NewServerWith(rn *Runner, extra Extra) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		handleRun(rn, w, r)
	})
	mux.HandleFunc("POST /sweep", func(w http.ResponseWriter, r *http.Request) {
		handleSweep(rn, w, r)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleJob(rn, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, rn.Metrics())
		if extra.Metrics != nil {
			extra.Metrics(w)
		}
	})
	for pattern, h := range extra.Routes {
		mux.Handle(pattern, h)
	}
	return mux
}

func handleRun(rn *Runner, w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// ?trace=1 asks for a round trace and NDJSON output. A body that
	// already names a trace spec keeps it; otherwise the default
	// (adaptive) spec is injected — so the query form and the explicit
	// body form describe, and cache as, the same request.
	traceNDJSON := r.URL.Query().Get("trace") != ""
	if traceNDJSON && req.Trace == nil {
		req.Trace = &trace.Spec{}
	}
	if r.URL.Query().Get("detach") != "" {
		job, resp, err := rn.Submit(req)
		switch {
		case err != nil:
			writeSubmitError(w, err)
		case resp != nil: // already cached; no job needed
			w.Header().Set(CacheHeader, "hit")
			writeResponse(w, resp)
		default:
			w.Header().Set("Location", "/jobs/"+job.ID)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			EncodeJSONLine(w, job.Snapshot())
		}
		return
	}
	resp, cached, err := rn.Do(r.Context(), req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if cached {
		w.Header().Set(CacheHeader, "hit")
	} else {
		w.Header().Set(CacheHeader, "miss")
	}
	if traceNDJSON {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		WriteTraceNDJSON(w, resp, func() {
			if flusher != nil {
				flusher.Flush()
			}
		})
	} else {
		writeResponse(w, resp)
	}
}

// WriteTraceNDJSON writes a traced response in the NDJSON trace
// format: one line per trace point, then the canonical Response line
// with the trace stripped (its points were already streamed). The
// bytes are a pure function of the response — consim -trace emits the
// same stream the server does. onLine, if non-nil, runs after every
// line (the server flushes there).
func WriteTraceNDJSON(w io.Writer, resp *Response, onLine func()) error {
	for _, p := range resp.Trace {
		if err := EncodeJSONLine(w, p); err != nil {
			return err
		}
		if onLine != nil {
			onLine()
		}
	}
	stripped := *resp
	stripped.Trace = nil
	if err := EncodeJSONLine(w, &stripped); err != nil {
		return err
	}
	if onLine != nil {
		onLine()
	}
	return nil
}

func handleSweep(rn *Runner, w http.ResponseWriter, r *http.Request) {
	var sr SweepRequest
	if err := decodeJSON(r, &sr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Headers are committed lazily on the first emitted line, so Sweep's
	// upfront point validation can still produce a 400; once streaming
	// has begun, an error (client gone, runner closing) just ends the
	// NDJSON short — detectable by the client as line count < points.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	emitted := false
	err := rn.Sweep(r.Context(), sr, func(p SweepPoint) error {
		emitted = true
		if err := EncodeJSONLine(w, p); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil && !emitted {
		writeSubmitError(w, err)
	}
}

func handleJob(rn *Runner, w http.ResponseWriter, r *http.Request) {
	job, ok := rn.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	EncodeJSONLine(w, job.Snapshot())
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

func writeResponse(w http.ResponseWriter, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	EncodeJSONLine(w, resp)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	EncodeJSONLine(w, map[string]string{"error": err.Error()})
}

// writeSubmitError answers a refused submission. A full queue is 429
// with a Retry-After jittered in [min, max], so rejected clients do not
// retry in lockstep. A draining server, or one whose store cannot
// journal the job, is 503: unlike 429 it tells load balancers to take
// the instance out of rotation rather than retry against it. Anything
// else is the request's fault: 400.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		after := RetryAfterMinSeconds + rand.IntN(RetryAfterMaxSeconds-RetryAfterMinSeconds+1)
		w.Header().Set("Retry-After", fmt.Sprint(after))
		writeError(w, http.StatusTooManyRequests, ErrBusy)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrStore):
		w.Header().Set("Retry-After", fmt.Sprint(RetryAfterMaxSeconds))
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func writeMetrics(w http.ResponseWriter, m Metrics) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	WriteMetric(w, "conserve_requests_total", "counter", "Admission attempts (run + sweep points).", m.Requests)
	WriteMetric(w, "conserve_analytic_requests_total", "counter", "Admissions dispatched to the analytic answer tier.", m.Analytic)
	WriteMetric(w, "conserve_cache_hits_total", "counter", "Requests served from the result cache.", m.CacheHits)
	WriteMetric(w, "conserve_cache_misses_total", "counter", "Requests the result cache could not serve.", m.CacheMisses)
	WriteMetric(w, "conserve_joined_total", "counter", "Requests deduped onto an in-flight identical job.", m.Joined)
	WriteMetric(w, "conserve_rejected_total", "counter", "Backpressure rejections (HTTP 429).", m.Rejected)
	WriteMetric(w, "conserve_executions_total", "counter", "Simulations actually run by workers.", m.Executions)
	WriteMetric(w, "conserve_queue_len", "gauge", "Jobs waiting in the admission queue.", m.QueueLen)
	WriteMetric(w, "conserve_queue_cap", "gauge", "Admission queue capacity.", m.QueueCap)
	WriteMetric(w, "conserve_workers", "gauge", "Simulation workers in the pool.", m.Workers)
	WriteMetric(w, "conserve_parallelism", "gauge", "Per-request parallelism budget.", m.Parallelism)
	WriteMetric(w, "conserve_cache_len", "gauge", "Responses held in the LRU result cache.", m.CacheLen)
	WriteMetric(w, "conserve_jobs_in_flight", "gauge", "Jobs queued or running.", m.JobsInFlight)
	WriteMetric(w, "conserve_jobs", "gauge", "Jobs in the job table: in flight, plus retained failures and answers neither the store nor the fleet holds.", m.Jobs)
	WriteMetric(w, "conserve_job_retries_total", "counter", "Execution attempts beyond each job's first.", m.Retries)
	WriteMetric(w, "conserve_jobs_recovered_total", "counter", "Interrupted jobs re-queued from the journal at startup.", m.Recovered)
	WriteMetric(w, "conserve_disk_hits_total", "counter", "Results served from the durable result cache after an LRU miss.", m.DiskHits)
	WriteMetric(w, "conserve_store_errors_total", "counter", "Durable-store writes that failed after admission (durability degraded, job kept going).", m.StoreErrors)
	WriteMetric(w, "conserve_journal_replay_seconds", "gauge", "Startup journal replay duration.", m.ReplaySeconds)
	WriteMetric(w, "conserve_drain_inflight", "gauge", "Jobs still in flight while draining (0 when not draining).", m.DrainInFlight)
}

// WriteMetric writes one Prometheus text-format family: its HELP and
// TYPE lines (kind is "counter" or "gauge") and its single sample.
func WriteMetric(w io.Writer, name, kind, help string, value any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, value)
}
