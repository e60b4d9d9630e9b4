package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"gossipmia/internal/faultinject"
	"gossipmia/internal/server"
)

// serveCmd runs the HTTP/JSON scenario service until interrupted. With
// DLSIM_TOKEN set, every request must carry it as a bearer token.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	jobs := fs.Int("jobs", 1, "scenarios executing concurrently; everything else waits in the queue")
	queue := fs.Int("queue", 16, "bounded pending-queue depth; submissions beyond it get HTTP 503")
	scale := fs.String("scale", "quick", "default scale for submissions that do not set one: tiny, quick, or paper")
	maxBody := fs.Int64("max-body", 1<<20, "request body size limit in bytes")
	checkpoint := fs.String("checkpoint", "", "directory for per-job run directories and the result store every job shares; restarts resume from it")
	storeDir := fs.String("store", "", "put the shared result store here instead of CHECKPOINT/store (requires -checkpoint); content-hash keys dedup arms across jobs and restarts")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain window on SIGTERM/SIGINT before running jobs are checkpointed and aborted")
	lease := fs.Duration("lease", 15*time.Second, "work-lease TTL for distributed workers; a worker that misses heartbeats this long has its arm reclaimed")
	audit := fs.Float64("audit", 0, "fraction of worker-completed arms to re-execute locally and cross-check byte-for-byte (0 disables, 1 audits everything); a divergent worker is quarantined")
	inject := fs.String("inject", "", `fault-injection spec for chaos testing, e.g. "arm-error=2,errors=3,arm-panic=5,panics=1,event-delay=10ms"`)
	logLevel := fs.String("log", "info", "log level: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := scaleByName(*scale); err != nil {
		return err
	}
	if *jobs < 1 || *queue < 1 {
		return fmt.Errorf("serve needs -jobs >= 1 and -queue >= 1")
	}
	if *lease <= 0 {
		return fmt.Errorf("serve needs -lease > 0")
	}
	if *audit < 0 || *audit > 1 {
		return fmt.Errorf("serve needs -audit in [0, 1], got %v", *audit)
	}
	if *storeDir != "" && *checkpoint == "" {
		return fmt.Errorf("-store requires -checkpoint (the store holds the checkpointed arms)")
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log level %q: %w", *logLevel, err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var injector *faultinject.Injector
	if *inject != "" {
		cfg, err := faultinject.Parse(*inject)
		if err != nil {
			return fmt.Errorf("bad -inject spec: %w", err)
		}
		injector = faultinject.New(cfg)
		log.Warn("fault injection armed", "spec", *inject)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	token := os.Getenv(tokenEnv)
	svc := server.New(server.Config{
		Jobs:          *jobs,
		QueueDepth:    *queue,
		DefaultScale:  *scale,
		MaxBodyBytes:  *maxBody,
		Token:         token,
		CheckpointDir: *checkpoint,
		StoreDir:      *storeDir,
		LeaseTTL:      *lease,
		AuditFraction: *audit,
		Fault:         injector,
		Log:           log,
	})
	httpSrv := &http.Server{Handler: svc}

	// The bound address line is the machine-readable contract scripts
	// parse (ci.sh starts serve on :0 and reads the port from here).
	fmt.Printf("dlsim: serving on http://%s (jobs=%d queue=%d scale=%s)\n",
		ln.Addr(), *jobs, *queue, *scale)
	log.Info("service configured",
		"auth", token != "",
		"checkpoint", *checkpoint, "store", *storeDir, "drain", *drain)

	ctx, stop := signalContext()
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		svc.Close()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting submissions (503 + Retry-After),
	// let running jobs finish inside the drain window, then checkpoint
	// and abort whatever remains. Event streams end when their jobs
	// reach a terminal status, so Shutdown completes right after.
	log.Info("draining", "window", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		log.Warn("drain window expired; running jobs checkpointed and aborted", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Info("stopped")
	return nil
}
