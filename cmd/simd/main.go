// Command simd serves the deterministic simulation engines as a
// long-running HTTP/JSON daemon (see internal/simserve and the README's
// "Running as a service" section).
//
// Usage:
//
//	simd -addr 127.0.0.1:8080
//	simd -addr 127.0.0.1:0 -portfile /tmp/simd.addr   # ephemeral port
//	simd -state-dir /var/lib/simd                     # journal results, recover them on restart
//	simd -workers 1 -pprof                            # one worker + profiling
//
// Endpoints:
//
//	POST /jobs      submit a batch of run specs ({"specs":[...],"wait":true})
//	GET  /jobs/{id} poll one job by content address
//	GET  /healthz   liveness
//	GET  /metrics   queue/cache/worker counters + per-bench wall histograms
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, and
// queued plus in-flight simulations drain to completion (their results
// land in the cache) before the process exits.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"nexsim/internal/jobapi"
	"nexsim/internal/simserve"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8080",
			"listen address (use port 0 for an ephemeral port)")
		workers = flag.Int("workers", 0,
			"simulation worker pool size (0 = GOMAXPROCS)")
		backlog = flag.Int("queue", 64,
			"job queue bound; submits beyond it are refused with 429")
		cacheEntries = flag.Int("cache", 1024,
			"result cache capacity (content-addressed LRU)")
		waitTimeout = flag.Duration("wait-timeout", 60*time.Second,
			"cap on wait=true submits before degrading to 202 + poll")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Minute,
			"cap on connection draining during shutdown")
		portFile = flag.String("portfile", "",
			"write the bound host:port to this file once listening (for scripts)")
		stateDir = flag.String("state-dir", "",
			"crash-safe persistence directory: results journal to a WAL, and a\n"+
				"restarted daemon recovers them (empty = in-memory)")
		runBudget = flag.Duration("run-budget", 0,
			"per-attempt wall budget; an over-budget run aborts with a structured\n"+
				"transient error instead of wedging its worker (0 = none)")
		retries = flag.Int("retries", 0,
			"max retries of a transiently-failed run (0 = default of 2, negative = off)")
		shardID = flag.String("shard-id", "",
			"name of this daemon within a simrouter cluster; operational identity\n"+
				"only (surfaces on /metrics), never part of a spec or result")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof profiling endpoints under /debug/pprof/")
	)
	flag.Parse()

	srv, err := simserve.Open(simserve.Config{
		Workers:      *workers,
		Backlog:      *backlog,
		CacheEntries: *cacheEntries,
		WaitTimeout:  *waitTimeout,
		StateDir:     *stateDir,
		RunBudget:    *runBudget,
		MaxRetries:   *retries,
		ShardID:      *shardID,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}

	handler := srv.Handler()
	if *pprofOn {
		// Keep the default mux out of it: mount the pprof handlers on an
		// explicit mux that falls through to the daemon's API.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	os.Exit(jobapi.Daemon{
		Name:     "simd",
		Addr:     *addr,
		PortFile: *portFile,
		Banner:   fmt.Sprintf(" (workers=%d queue=%d cache=%d)", srv.Workers(), *backlog, *cacheEntries),
		Handler:  handler,
		Drain:    *drainTimeout,
		Close:    srv.Close, // drains queued and in-flight simulations
	}.Run())
}
