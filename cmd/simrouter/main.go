// Command simrouter fronts a fleet of simd shards with a stateless
// cluster router (see internal/cluster and the README's "Running a
// cluster" section): consistent-hash placement of content-addressed
// specs with bounded loads, health-probe-driven membership, hedged
// retries that double as cross-node determinism probes, replicated
// hot-set caching, a verified edge cache that answers hot results at the
// router, and per-tenant admission control.
//
// Usage:
//
//	simrouter -addr 127.0.0.1:9000 -shards 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	simrouter -shards ... -hedge-after 500ms -tenant-rate 50 -tenant-weights team-a=4,team-b=1
//
// Endpoints mirror simd exactly — POST /jobs, GET /jobs/{id},
// /healthz, /metrics — so clients are oblivious to whether they talk
// to one daemon or a cluster.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes and
// in-flight forwards complete before the process exits. The router
// owns no durable state, so killing it loses nothing but connections.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nexsim/internal/cluster"
	"nexsim/internal/jobapi"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:9000",
			"listen address (use port 0 for an ephemeral port)")
		shardsFlag = flag.String("shards", "",
			"comma-separated simd shard addresses (host:port), required")
		vnodes = flag.Int("vnodes", 0,
			"virtual nodes per shard on the hash ring (0 = default of 64)")
		loadFactor = flag.Float64("load-factor", 0,
			"bounded-load ceiling factor c (0 = default of 1.25; <= 1 disables bounding)")
		hedgeAfter = flag.Duration("hedge-after", 0,
			"duplicate a wait=true sub-batch on the next replica after this long;\n"+
				"the first answer wins and the loser is byte-compared (0 = off)")
		forwardTimeout = flag.Duration("forward-timeout", 5*time.Minute,
			"cap on one forwarded request; must exceed the shards' wait timeout")
		probeInterval = flag.Duration("probe-interval", time.Second,
			"period between /healthz probes of every shard")
		failThreshold = flag.Int("fail-threshold", 3,
			"consecutive probe failures before a shard is marked down")
		readmitOKs = flag.Int("readmit-oks", 2,
			"consecutive probe successes before a down shard is re-admitted")
		hotsetK = flag.Int("hotset-k", 8,
			"hottest content addresses replicated to every shard each interval (0 = default of 8)")
		hotsetInterval = flag.Duration("hotset-interval", 5*time.Second,
			"period of the hot-set digest exchange")
		tenantRate = flag.Float64("tenant-rate", 0,
			"admission tokens (specs) per second per unit tenant weight (0 = no gate)")
		tenantBurst = flag.Float64("tenant-burst", 0,
			"bucket depth in seconds of refill (0 = default of 4)")
		tenantWeights = flag.String("tenant-weights", "",
			"comma-separated tenant=weight fair shares (unlisted tenants weigh 1)")
		portFile = flag.String("portfile", "",
			"write the bound host:port to this file once listening (for scripts)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute,
			"cap on connection draining during shutdown")
	)
	flag.Parse()

	shards := splitNonEmpty(*shardsFlag)
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "simrouter: -shards is required (comma-separated host:port list)")
		os.Exit(2)
	}
	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simrouter:", err)
		os.Exit(2)
	}

	router, err := cluster.NewRouter(cluster.RouterConfig{
		Shards:         shards,
		VNodes:         *vnodes,
		LoadFactor:     *loadFactor,
		HedgeAfter:     *hedgeAfter,
		ForwardTimeout: *forwardTimeout,
		ProbeInterval:  *probeInterval,
		FailThreshold:  *failThreshold,
		ReadmitOKs:     *readmitOKs,
		HotSetK:        *hotsetK,
		HotSetInterval: *hotsetInterval,
		Admission: cluster.AdmissionConfig{
			RatePerSec: *tenantRate,
			BurstSec:   *tenantBurst,
			Weights:    weights,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simrouter:", err)
		os.Exit(1)
	}

	router.Start()
	os.Exit(jobapi.Daemon{
		Name:     "simrouter",
		Addr:     *addr,
		PortFile: *portFile,
		Banner:   fmt.Sprintf(", routing to %d shards", len(shards)),
		Handler:  router.Handler(),
		Drain:    *drainTimeout,
		Close:    router.Close,
	}.Run())
}

// splitNonEmpty splits a comma list, dropping empty entries so trailing
// commas are harmless.
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseWeights parses "tenant=weight,..." into the admission map.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]float64{}
	for _, part := range splitNonEmpty(s) {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want tenant=weight)", part)
		}
		wt, err := strconv.ParseFloat(val, 64)
		if err != nil || wt <= 0 {
			return nil, fmt.Errorf("bad weight %q for tenant %q (want a positive number)", val, name)
		}
		weights[name] = wt
	}
	return weights, nil
}
