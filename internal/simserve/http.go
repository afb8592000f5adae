package simserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nexsim/internal/jobapi"
)

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.m.reg)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /cluster/hotset", s.handleHotset)
	return mux
}

// handleHotset accepts a hot-set push: each entry is verified against
// its content address and promoted into the result cache. Bad entries
// are rejected individually — one corrupt entry must not block the
// rest of the batch.
func (s *Server) handleHotset(w http.ResponseWriter, r *http.Request) {
	var req jobapi.HotsetPush
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, jobapi.MaxHotsetBody)).Decode(&req); err != nil {
		jobapi.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	promoted, rejected := 0, 0
	for _, e := range req.Entries {
		if err := s.Promote(e.ID, e.Failed, e.Result); err != nil {
			rejected++
			continue
		}
		promoted++
	}
	jobapi.WriteJSON(w, http.StatusOK, struct {
		Promoted int `json:"promoted"`
		Rejected int `json:"rejected"`
	}{promoted, rejected})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write([]byte("ok\n")); err != nil {
		return
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := jobapi.DecodeSubmit(w, r)
	if err != nil {
		jobapi.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	jobs := make([]*job, 0, len(req.Specs))
	if req.Wait {
		// Balance every waiter this request registered, however the
		// request ends (result, timeout, disconnect, mid-batch error).
		defer func() { s.releaseWaiters(jobs) }()
	}
	for i, spec := range req.Specs {
		j, err := s.submit(spec, req.Wait)
		switch {
		case err == nil:
			jobs = append(jobs, j)
		case errors.Is(err, ErrQueueFull):
			// The specs accepted so far were promised to the client
			// ("accepted %d"), so they run to completion even though this
			// response is an error.
			s.keepJobs(jobs)
			id, _ := spec.ID() // submit addressed this spec before finding the queue full
			w.Header().Set("Retry-After", strconv.Itoa(jobapi.RetryAfterSecs(id)))
			jobapi.WriteError(w, http.StatusTooManyRequests,
				fmt.Sprintf("spec %d: job queue full (accepted %d of %d specs; resubmit the rest)",
					i, len(jobs), len(req.Specs)))
			return
		case errors.Is(err, ErrShuttingDown):
			jobapi.WriteError(w, http.StatusServiceUnavailable, "server is draining")
			return
		default:
			jobapi.WriteError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
	}

	if !req.Wait {
		jobapi.WriteJSON(w, http.StatusAccepted, s.statusEnvelope(jobs))
		return
	}

	deadline := time.Now().Add(s.cfg.WaitTimeout)
	results := make([]json.RawMessage, len(jobs))
	for i, j := range jobs {
		remaining := time.Until(deadline)
		done, gone := waitDone(r.Context(), j, remaining)
		if gone {
			// The client disconnected mid-wait: stop blocking a handler
			// goroutine on an answer nobody will read. The deferred
			// release lets still-queued jobs cancel at pickup.
			return
		}
		if remaining <= 0 || !done {
			// Timed out: hand the client the job IDs to poll. They now
			// must complete even if this client never returns.
			s.keepJobs(jobs)
			jobapi.WriteJSON(w, http.StatusAccepted, s.statusEnvelope(jobs))
			return
		}
		s.mu.Lock()
		results[i] = j.result
		s.mu.Unlock()
	}
	jobapi.WriteJSON(w, http.StatusOK, jobapi.Results{Results: results})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, result, ok := s.lookup(id)
	if !ok {
		jobapi.WriteError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	jobapi.WriteJSON(w, http.StatusOK, jobapi.JobPoll{ID: id, Status: status, Result: result})
}

// statusEnvelope snapshots per-job statuses for async responses.
func (s *Server) statusEnvelope(jobs []*job) jobapi.Accepted {
	statuses := make([]jobapi.JobStatus, len(jobs))
	s.mu.Lock()
	for i, j := range jobs {
		statuses[i] = jobapi.JobStatus{ID: j.id, Status: j.status}
	}
	s.mu.Unlock()
	return jobapi.Accepted{Jobs: statuses}
}

// waitDone waits for j to finish, up to d, observing the request
// context: gone=true means the client disconnected first.
func waitDone(ctx context.Context, j *job, d time.Duration) (done, gone bool) {
	if d <= 0 {
		return false, false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.done:
		return true, false
	case <-t.C:
		return false, false
	case <-ctx.Done():
		return false, true
	}
}
