package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"nexsim/internal/experiments"
	"nexsim/internal/jobapi"
)

// Hedged forwarding, reusing simserve's hedging shape (PR 7) one level
// up the stack: a sub-batch that is slow or whose shard died is
// re-routed to the next replica, the first answer wins, and when both
// sides eventually answer, the duplicate is byte-compared. On a single
// node that comparison catches nondeterministic engines; across nodes
// it is a free replica-verification probe — byte-identical results from
// any shard is the cluster's core invariant, so a mismatch quarantines
// the losing shard until it re-earns admission through probation.

// groupOutcome is one attempt's result for a whole sub-batch.
type groupOutcome struct {
	results []itemResult
	err     error
	// refused notes shard backpressure (HTTP 429): the shard is healthy
	// but full, which informs the error the client ultimately sees.
	refused bool
}

// routeItems forwards items to their shards (grouped, concurrently) and
// returns outcomes aligned with items. exclude carries shards already
// failed over from on this path.
func (r *Router) routeItems(ctx context.Context, items []specItem, wait bool, exclude map[string]bool) ([]itemResult, error) {
	groups, err := r.groupByShard(items, exclude)
	if err != nil {
		return nil, err
	}
	type groupRes struct {
		shard string
		out   groupOutcome
	}
	shards := sortedShardKeys(groups)
	ch := make(chan groupRes, len(shards))
	for _, shard := range shards {
		go func(shard string, group []specItem) {
			out := r.sendGroupHedged(ctx, shard, group, wait, exclude)
			ch <- groupRes{shard: shard, out: out}
		}(shard, groups[shard])
	}
	byIdx := make(map[int]itemResult, len(items))
	var firstErr error
	refused := false
	for range shards {
		gr := <-ch
		if gr.out.err != nil {
			if firstErr == nil {
				firstErr = gr.out.err
			}
			refused = refused || gr.out.refused
			continue
		}
		// Group outcomes are always aligned with the group's item order
		// (sendGroup builds them positionally; routeItems returns
		// aligned), so map back by position.
		for i, res := range gr.out.results {
			byIdx[groups[gr.shard][i].idx] = res
		}
	}
	if firstErr != nil {
		if refused {
			return nil, errShed
		}
		return nil, firstErr
	}
	aligned := make([]itemResult, len(items))
	for i, it := range items {
		res, ok := byIdx[it.idx]
		if !ok {
			// A shard answered with fewer entries than asked; treat the
			// gap as still-queued rather than failing the batch.
			res = itemResult{id: it.id, status: jobapi.StatusQueued}
		}
		aligned[i] = res
	}
	return aligned, nil
}

// sendGroupHedged runs the primary attempt against shard with hedging
// and failover:
//
//   - primary transport error / 5xx / 429 → fail over to the next
//     replicas (exclude grows by this shard)
//   - primary slow (HedgeAfter, wait=true) → launch a duplicate on the
//     next replicas and race; first success answers the client
//   - both sides answer → byte-compare overlapping results (determinism
//     probe); a mismatch counts and quarantines the losing shard
func (r *Router) sendGroupHedged(ctx context.Context, shard string, group []specItem, wait bool, exclude map[string]bool) groupOutcome {
	primaryCh := make(chan groupOutcome, 1)
	go func() { primaryCh <- r.sendGroup(ctx, shard, group, wait) }()

	var timerC <-chan time.Time
	if r.cfg.HedgeAfter > 0 && wait {
		timer := time.NewTimer(r.cfg.HedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}

	var hedgeCh chan groupOutcome
	hedgeLaunched := false
	for {
		select {
		case out := <-primaryCh:
			if out.err == nil {
				if hedgeLaunched {
					go r.compareLate(hedgeCh, out.results)
				}
				return out
			}
			// Primary failed hard. If a hedge is in flight its answer is
			// authoritative; otherwise fail over synchronously.
			if hedgeLaunched {
				hedgeOut := <-hedgeCh
				if hedgeOut.err == nil {
					r.m.hedgesWon.Inc()
				}
				return hedgeOut
			}
			return r.failover(ctx, shard, group, wait, exclude, out)

		case <-timerC:
			timerC = nil
			hedgeLaunched = true
			hedgeCh = make(chan groupOutcome, 1)
			r.m.hedgesLaunched.Inc()
			go func() {
				res, err := r.routeItems(ctx, group, wait, withExcluded(exclude, shard))
				hedgeCh <- groupOutcome{results: res, err: err}
			}()

		case out := <-hedgeCh:
			hedgeCh = nil
			hedgeLaunched = false
			if out.err == nil {
				r.m.hedgesWon.Inc()
				go r.compareLate(primaryCh, out.results)
				return out
			}
			// Hedge lost its own race (its replicas failed); keep waiting
			// on the primary.

		case <-ctx.Done():
			return groupOutcome{err: ctx.Err()}
		}
	}
}

// failover re-routes a group after its shard failed. The failed shard's
// refusal kind decides the client-visible error when no replica is
// left.
func (r *Router) failover(ctx context.Context, shard string, group []specItem, wait bool, exclude map[string]bool, out groupOutcome) groupOutcome {
	res, err := r.routeItems(ctx, group, wait, withExcluded(exclude, shard))
	if err != nil {
		return groupOutcome{err: err, refused: out.refused}
	}
	r.m.failovers.Inc()
	return groupOutcome{results: res}
}

// withExcluded copies exclude plus shard (the original map may be
// shared across concurrent groups).
func withExcluded(exclude map[string]bool, shard string) map[string]bool {
	ex := make(map[string]bool, len(exclude)+1)
	for s := range exclude {
		ex[s] = true
	}
	ex[shard] = true
	return ex
}

// compareLate drains the losing side of a hedge race and byte-compares
// its results against the published winner's. The wait is bounded by
// the forward timeout; a loser that never answers was already reported
// failed by its own path.
func (r *Router) compareLate(ch <-chan groupOutcome, winner []itemResult) {
	timer := time.NewTimer(r.cfg.ForwardTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		r.m.hedgesWasted.Inc()
		if out.err != nil {
			return
		}
		r.probeCompare(winner, out.results)
	case <-timer.C:
	}
}

// probeCompare verifies replica answers byte for byte: for every
// content address both sides finished, the result bytes must match.
// A divergence is a broken determinism invariant on some shard —
// counted, the loser's serving shard is quarantined, and the edge cache
// is flushed: the router cannot know which side was wrong, so every
// copy it holds is suspect.
func (r *Router) probeCompare(winner, loser []itemResult) {
	byID := make(map[string]itemResult, len(winner))
	for _, res := range winner {
		if len(res.result) > 0 {
			byID[res.id] = res
		}
	}
	for _, res := range loser {
		won, ok := byID[res.id]
		if !ok || len(res.result) == 0 {
			continue
		}
		r.m.probeCompares.Inc()
		if !bytes.Equal(won.result, res.result) {
			r.m.probeMismatches.Inc()
			r.mem.Quarantine(res.shard)
			r.edge.flush()
		}
	}
}

// sendGroup performs one sub-batch POST to one shard and parses the
// response into per-item outcomes.
func (r *Router) sendGroup(ctx context.Context, shard string, group []specItem, wait bool) groupOutcome {
	sub := jobapi.SubmitRequest{Specs: make([]experiments.Spec, len(group)), Wait: wait}
	for i, it := range group {
		sub.Specs[i] = it.spec
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return groupOutcome{err: err}
	}

	inflight := r.m.inflight.With(shard)
	inflight.Inc()
	defer inflight.Add(-1)
	r.m.forwards.With(shard).Inc()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+shard+"/jobs", bytes.NewReader(body))
	if err != nil {
		return groupOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client(shard).Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The client went away; that is not evidence against the shard.
			return groupOutcome{err: ctx.Err()}
		}
		r.m.forwardErrors.With(shard).Inc()
		r.mem.ReportFailure(shard)
		return groupOutcome{err: fmt.Errorf("shard %s: %w", shard, err)}
	}
	defer drainClose(resp)

	switch resp.StatusCode {
	case http.StatusOK:
		var env jobapi.Results
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || len(env.Results) != len(group) {
			r.m.forwardErrors.With(shard).Inc()
			return groupOutcome{err: fmt.Errorf("shard %s: malformed results (%v)", shard, err)}
		}
		r.mem.ReportSuccess(shard)
		results := make([]itemResult, len(group))
		for i, raw := range env.Results {
			status := jobapi.StatusDone
			var probe struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(raw, &probe) == nil && probe.Error != "" {
				status = jobapi.StatusFailed
			}
			results[i] = itemResult{id: group[i].id, status: status, result: raw, shard: shard}
		}
		return groupOutcome{results: results}

	case http.StatusAccepted:
		var env jobapi.Accepted
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || len(env.Jobs) != len(group) {
			r.m.forwardErrors.With(shard).Inc()
			return groupOutcome{err: fmt.Errorf("shard %s: malformed job statuses (%v)", shard, err)}
		}
		r.mem.ReportSuccess(shard)
		results := make([]itemResult, len(group))
		for i, js := range env.Jobs {
			results[i] = itemResult{id: js.ID, status: js.Status, shard: shard}
		}
		return groupOutcome{results: results}

	case http.StatusTooManyRequests:
		// The shard is healthy but full: backpressure, not failure.
		return groupOutcome{err: fmt.Errorf("shard %s: queue full", shard), refused: true}

	default:
		r.m.forwardErrors.With(shard).Inc()
		r.mem.ReportFailure(shard)
		return groupOutcome{err: fmt.Errorf("shard %s: HTTP %d", shard, resp.StatusCode)}
	}
}
