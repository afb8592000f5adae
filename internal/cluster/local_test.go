package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"nexsim/internal/simserve"
)

// In-process cluster harness: N simserve shards behind real loopback
// listeners plus one router, all in one process. The cluster tests use
// it to exercise the full HTTP forwarding path — real sockets, real
// connection pools — without spawning processes (that end-to-end
// variant is scripts/cluster_smoke.sh).

// LocalShard is one in-process simd: a simserve server behind a real
// TCP listener. Stop abruptly severs the listener and every open
// connection — from the router's point of view the shard is dead, even
// though the engine behind it is still draining — and Restart rebinds
// the same address, modelling a crashed-and-recovered node.
type LocalShard struct {
	// Addr is the shard's host:port, stable across Stop/Restart.
	Addr string
	// Server is the engine behind the listener (for counters and Close).
	Server *simserve.Server

	mu      sync.Mutex
	httpSrv *http.Server
}

// serve binds addr (host:port, or :0 for ephemeral) and serves the
// shard's handler until Stop.
func (s *LocalShard) serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Addr = ln.Addr().String()
	srv := &http.Server{Handler: s.Server.Handler()}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// Stop kills the shard's HTTP face without warning: the listener and
// every established connection close immediately (http.Server.Close,
// not Shutdown). In-flight simulations keep running inside the engine —
// exactly what a network partition looks like from outside.
func (s *LocalShard) Stop() {
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// Restart rebinds the shard's original address. The engine (and its
// cache) survived the outage, like a daemon whose machine dropped off
// the network and came back.
func (s *LocalShard) Restart() error {
	s.mu.Lock()
	running := s.httpSrv != nil
	s.mu.Unlock()
	if running {
		return nil
	}
	return s.serve(s.Addr)
}

// LocalCluster is the whole assembly: shards, router, and the router's
// own listener.
type LocalCluster struct {
	Shards []*LocalShard
	Router *Router
	// RouterAddr is the router's host:port; clients POST /jobs here.
	RouterAddr string

	routerSrv *http.Server
}

// NewLocal starts n shards (each configured from scfg, with ShardID
// "shard0".."shardN-1") and a router over them. rcfg.Shards is filled
// in from the listeners; set the rest of rcfg as the test needs. The router's background loops are started.
func NewLocal(n int, scfg simserve.Config, rcfg RouterConfig) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one shard, got %d", n)
	}
	lc := &LocalCluster{}
	for i := 0; i < n; i++ {
		cfg := scfg
		cfg.ShardID = fmt.Sprintf("shard%d", i)
		srv, err := simserve.Open(cfg)
		if err != nil {
			lc.Close()
			return nil, err
		}
		sh := &LocalShard{Server: srv}
		if err := sh.serve("127.0.0.1:0"); err != nil {
			srv.Close()
			lc.Close()
			return nil, err
		}
		lc.Shards = append(lc.Shards, sh)
	}
	addrs := make([]string, len(lc.Shards))
	for i, sh := range lc.Shards {
		addrs[i] = sh.Addr
	}
	rcfg.Shards = addrs
	router, err := NewRouter(rcfg)
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.RouterAddr = ln.Addr().String()
	lc.routerSrv = &http.Server{Handler: router.Handler()}
	go func() { _ = lc.routerSrv.Serve(ln) }()
	router.Start()
	return lc, nil
}

// Close tears the assembly down: router loops, router listener, shard
// listeners, then the engines (which drain their queues).
func (lc *LocalCluster) Close() {
	if lc.Router != nil {
		lc.Router.Close()
	}
	if lc.routerSrv != nil {
		_ = lc.routerSrv.Close()
	}
	for _, sh := range lc.Shards {
		sh.Stop()
		sh.Server.Close()
	}
}
