package jobapi

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is the process skeleton simd and simrouter share: listen,
// advertise the bound address, serve until SIGINT/SIGTERM, drain open
// connections, close the backend, withdraw the advertisement.
type Daemon struct {
	// Name prefixes every stderr line ("simd", "simrouter").
	Name string
	// Addr is the listen address (port 0 for an ephemeral port).
	Addr string
	// PortFile, when set, receives the bound host:port once listening and
	// is removed on exit, so wrappers polling the file do not connect to a
	// dead (or recycled) address.
	PortFile string
	// Banner is appended to the "listening on <addr>" line.
	Banner  string
	Handler http.Handler
	// Drain caps connection draining during shutdown.
	Drain time.Duration
	// Close stops the backend once no connection is left to answer:
	// simserve drains queued and in-flight runs, the router stops its
	// loops.
	Close func()
}

// Run serves until a signal arrives and returns the process exit code.
func (d Daemon) Run() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, d.Name+":", err)
		return 1
	}
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return fail(err)
	}
	bound := ln.Addr().String()
	if d.PortFile != "" {
		if err := os.WriteFile(d.PortFile, []byte(bound), 0o644); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: listening on %s%s\n", d.Name, bound, d.Banner)

	httpSrv := &http.Server{Handler: d.Handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return fail(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "%s: %s — draining\n", d.Name, got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), d.Drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, d.Name+": shutdown:", err)
	}
	d.Close()
	if d.PortFile != "" {
		if err := os.Remove(d.PortFile); err != nil && !os.IsNotExist(err) {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: drained, exiting\n", d.Name)
	return 0
}
