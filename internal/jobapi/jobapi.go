// Package jobapi is the job API's wire format: the request, response
// and hot-set bodies, the limits and error strings of request decoding,
// the response encoders, and the Retry-After derivation that simd
// (internal/simserve) serves and simrouter (internal/cluster) both
// serves and speaks to its shards. Both tiers import it, so a routed
// answer is indistinguishable from a direct one by construction rather
// than by two copies kept in step. Daemon (daemon.go) is the process
// skeleton the two binaries share.
package jobapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"

	"nexsim/internal/experiments"
)

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	Specs []experiments.Spec `json:"specs"`
	// Wait blocks until every spec has a result (bounded by the
	// server's wait timeout) and returns results in spec order.
	Wait bool `json:"wait"`
}

// Results is the 200 answer to a wait=true submit: one canonical
// JobResult per spec, in spec order.
type Results struct {
	Results []json.RawMessage `json:"results"`
}

// Accepted is the 202 answer to an async (or timed-out) submit: the
// content addresses to poll.
type Accepted struct {
	Jobs []JobStatus `json:"jobs"`
}

// JobStatus is one entry of an Accepted response.
type JobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// JobPoll is the GET /jobs/{id} answer; Result is present once the job
// is done or failed.
type JobPoll struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	// StatusCanceled marks a queued job skipped at worker pickup because
	// every client waiting on it had disconnected (nobody left to answer,
	// nothing yet computed worth keeping).
	StatusCanceled = "canceled"
)

// HotsetPush is the POST /cluster/hotset body (the router's hot-set
// replication protocol).
type HotsetPush struct {
	Entries []HotEntry `json:"entries"`
}

// HotEntry is one pushed result. Result is a full JobResult; the
// receiving shard re-derives the content address from it, so ID and
// Failed are claims to verify, not facts to trust.
type HotEntry struct {
	ID     string          `json:"id"`
	Failed bool            `json:"failed"`
	Result json.RawMessage `json:"result"`
}

// Request limits.
const (
	// MaxBatch bounds specs per submit; bigger sweeps should batch.
	MaxBatch = 4096
	// MaxSubmitBody and MaxHotsetBody bound the request bodies read.
	MaxSubmitBody = 1 << 20
	MaxHotsetBody = 8 << 20
)

// DecodeSubmit reads and validates a POST /jobs body: at most
// MaxSubmitBody bytes, no unknown fields, between 1 and MaxBatch specs.
// The error text is the 400 body's message.
func DecodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBody))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Specs) == 0 {
		return req, errors.New("no specs submitted")
	}
	if len(req.Specs) > MaxBatch {
		return req, fmt.Errorf("batch of %d specs exceeds the %d-spec limit", len(req.Specs), MaxBatch)
	}
	return req, nil
}

// RetryAfterSecs derives a deterministic 1–3s Retry-After from the
// refused spec's content address: a fleet of synchronized clients
// sweeping distinct specs spreads its retries instead of re-stampeding
// a recovering queue in unison, while any given spec (and so any given
// test) always sees the same value.
func RetryAfterSecs(id string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id)) // fnv Write cannot fail
	return 1 + int(h.Sum64()%3)
}

// WriteJSON writes v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, code, data)
}

// WriteError writes the {"error": msg} body every non-2xx answer uses.
func WriteError(w http.ResponseWriter, code int, msg string) {
	data, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		http.Error(w, msg, code)
		return
	}
	writeBody(w, code, data)
}

func writeBody(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		return
	}
}
