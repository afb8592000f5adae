package jobapi

import (
	"encoding/json"
	"fmt"

	"nexsim/internal/accel"
	"nexsim/internal/experiments"
	"nexsim/internal/nex"
)

// JobResult is the canonical, fully deterministic record of one
// completed run — the bytes the caches store and every response
// carries. Wall-clock time is deliberately absent (it varies run to
// run and would break cached-vs-fresh byte identity); serving-side
// wall times feed the /metrics histograms instead.
type JobResult struct {
	ID        string              `json:"id"`
	Spec      experiments.Spec    `json:"spec"`
	SimTimePS int64               `json:"sim_time_ps"`
	SimTime   string              `json:"sim_time"`
	NEXStats  nex.Stats           `json:"nex_stats"`
	Devices   []accel.DeviceStats `json:"devices,omitempty"`
	Error     string              `json:"error,omitempty"`
	// ErrorKind classifies a failure: deterministic failures (bad spec,
	// engine panic) are cached forever — same spec, same failure —
	// while transient ones (injected fault, budget abort) were already
	// retried, are never cached, and may succeed on resubmit.
	ErrorKind string `json:"error_kind,omitempty"`
	// Attempt records which run attempt produced this result (0 unless
	// transient failures forced retries).
	Attempt int `json:"attempt,omitempty"`
}

// ErrorKind values.
const (
	ErrorKindDeterministic = "deterministic"
	ErrorKindTransient     = "transient"
)

// VerifyResult decides whether result may enter, under id, a cache that
// did not compute it — a shard's LRU on a hot-set push, the router's
// edge cache on a forwarded answer. The bytes must decode, the embedded
// spec must hash to id (determinism makes a result self-certifying: its
// content address vouches for it, whoever sent it), the failure must not
// be transient (those are answers, not facts), and the failed flag must
// match the result. Both tiers call this and nothing else.
func VerifyResult(id string, failed bool, result []byte) error {
	var jr JobResult
	if err := json.Unmarshal(result, &jr); err != nil {
		return fmt.Errorf("jobapi: verify: %w", err)
	}
	if specID, err := jr.Spec.ID(); err != nil || specID != id {
		return fmt.Errorf("jobapi: verify: content address mismatch for %s", id)
	}
	if jr.ErrorKind == ErrorKindTransient {
		return fmt.Errorf("jobapi: verify: transient failures are not cacheable")
	}
	if failed != (jr.Error != "") {
		return fmt.Errorf("jobapi: verify: failed flag disagrees with result for %s", id)
	}
	return nil
}
