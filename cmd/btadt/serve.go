package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"blockadt/pkg/blockadt"
	"blockadt/pkg/blockadt/serve"
)

// cmdServe runs the cache-first sweep service (docs/serve.md): an HTTP
// server that accepts sweep matrices at POST /v1/sweeps, streams
// results back as NDJSON, and serves repeats from the content-addressed
// run store.
//
// Shutdown is signal-aware: the first SIGINT/SIGTERM stops accepting
// connections and drains in-flight requests, bounded by -drain.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8423", "listen address")
	storeDir := fs.String("store", "", "content-addressed run store directory (required; the service cache)")
	parallelism := fs.Int("parallel", 0, "per-sweep worker pool size (<1 = NumCPU)")
	maxBody := fs.Int64("max-body", 1<<20, "maximum matrix submission size in bytes")
	maxSweeps := fs.Int("max-sweeps", 1024, "maximum sweeps retained for polling before the oldest finished ones are evicted")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests")
	logLevel := fs.String("log-level", "info", "request-log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "request-log format: text or json")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (off unless set; keep it off the public listener)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("serve requires -store (the run store is the service's cache)")
	}
	store, err := blockadt.OpenStore(*storeDir)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Store:        store,
		Parallelism:  *parallelism,
		MaxBodyBytes: *maxBody,
		MaxSweeps:    *maxSweeps,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	stopDebug, err := startDebugServer(*debugAddr, logger)
	if err != nil {
		return err
	}
	defer stopDebug()
	bi := blockadt.Build()
	logger.Info("listening",
		"addr", ln.Addr().String(), "store", *storeDir, "entries", store.Len(),
		"version", bi.Version, "engine", bi.Engine)
	fmt.Fprintf(os.Stderr, "btadt serve: listening on %s (store %s, %d entries)\n",
		ln.Addr(), *storeDir, store.Len())
	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "btadt serve: draining (up to %s)\n", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			httpSrv.Close()
			return fmt.Errorf("drain: %w", err)
		}
		<-done // Serve has returned http.ErrServerClosed
		return nil
	}
}

// buildLogger assembles the serve request logger from the -log-level
// and -log-format flags. Logs go to stderr, like every other btadt
// diagnostic, leaving stdout for data.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}

// startDebugServer exposes net/http/pprof on its own listener when
// -debug-addr is set. A dedicated mux (not http.DefaultServeMux) keeps
// the profiling surface off the public API listener entirely — the
// operator opts in per address, typically a loopback one.
func startDebugServer(addr string, logger *slog.Logger) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	dbg := &http.Server{Handler: mux}
	go dbg.Serve(ln)
	logger.Info("pprof listening", "addr", ln.Addr().String())
	return func() { dbg.Close() }, nil
}
