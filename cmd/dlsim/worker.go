package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"gossipmia/internal/faultinject"
	"gossipmia/pkg/dlsim"
)

// workerCmd runs a pull-mode worker: it registers with the service,
// long-polls the /v1/work/claim endpoint, executes each claimed arm
// through the same SDK Runner a local run uses (so the uploaded
// records are byte-identical to in-process execution), heartbeats the
// lease while the arm runs, and uploads the outcome with its content
// checksum. Any number of workers may point at one service; the
// server leases each arm to exactly one of them at a time and
// reclaims arms whose worker disappears. DLSIM_TOKEN, when set, is sent
// as the bearer token.
//
// On SIGINT/SIGTERM the worker drains: it stops claiming new arms,
// finishes and uploads the arms it already holds, deregisters, and
// exits — so a clean shutdown never forces the server to wait out a
// lease expiry. A slot the server has quarantined (it was caught
// uploading bytes that fail verification) stops the same way: the
// refusal is permanent.
func workerCmd(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	serverURL := fs.String("server", "", "dlsim service base URL to pull work from (required)")
	name := fs.String("name", "", "worker name for lease bookkeeping (default: host-pid)")
	parallel := fs.Int("parallel", 1, "arms this worker executes concurrently")
	workers := fs.Int("workers", 1, "goroutines inside each arm (intra-arm parallelism); results are identical for any value")
	poll := fs.Duration("poll", 15*time.Second, "claim long-poll window (the server clamps it)")
	inject := fs.String("inject", "", `fault-injection spec for chaos testing worker-side failures, e.g. "arm-panic=2,panics=3,upload-corrupt=1,corruptions=2"`)
	logLevel := fs.String("log", "info", "log level: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" {
		return fmt.Errorf("worker requires -server (the dlsim service to pull work from)")
	}
	if *parallel < 1 {
		return fmt.Errorf("worker needs -parallel >= 1")
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", *workers)
	}
	if *poll <= 0 {
		return fmt.Errorf("worker needs -poll > 0")
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

	who := *name
	if who == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		who = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	// Claims and heartbeats retry on 503 (and a gateway's 429) honoring
	// Retry-After, so a draining server backs the fleet off instead of
	// hammering it.
	client := newClient(*serverURL, dlsim.WithClientRetry(dlsim.RetryPolicy{
		MaxAttempts: 4, BaseDelay: 250 * time.Millisecond,
	}))

	ctx, stop := signalContext()
	defer stop()
	if injector != nil {
		ctx = faultinject.With(ctx, injector)
	}

	fmt.Printf("dlsim: worker %s pulling from %s (parallel=%d)\n", who, *serverURL, *parallel)
	var wg sync.WaitGroup
	for slot := 0; slot < *parallel; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			slotName := who
			if *parallel > 1 {
				slotName = fmt.Sprintf("%s/%d", who, slot)
			}
			workerLoop(ctx, client, log.With("worker", slotName), slotName, *poll, *workers)
		}(slot)
	}
	wg.Wait()
	log.Info("worker stopped")
	return nil
}

// workerLoop is one claim-execute-upload loop; -parallel runs several,
// each registered under its own slot name. On context cancellation the
// loop stops claiming (any in-flight arm is finished and uploaded by
// runOrder before control returns here) and deregisters on the way
// out, so the dispatcher drops the slot from the live set immediately
// instead of waiting out the liveness TTL.
func workerLoop(ctx context.Context, client *dlsim.Client, log *slog.Logger, who string, poll time.Duration, workers int) {
	if err := client.RegisterWorker(ctx, who); err != nil {
		if ctx.Err() != nil {
			return
		}
		// Registration is a courtesy — the first claim registers
		// implicitly — so a failed handshake only warns.
		log.Warn("register failed; continuing (claims register implicitly)", "err", err)
	}
	defer func() {
		// The loop context is typically already cancelled here; the
		// goodbye goes out on its own short deadline.
		byeCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := client.DeregisterWorker(byeCtx, who); err != nil {
			log.Warn("deregister failed; server will forget this worker after its TTL", "err", err)
		} else {
			log.Info("deregistered")
		}
	}()
	for ctx.Err() == nil {
		order, err := client.ClaimWork(ctx, who, poll)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, dlsim.ErrWorkerQuarantined) {
				// The server caught this slot lying and refuses it for as
				// long as the server runs: stop, and say goodbye.
				log.Error("worker is quarantined; stopping", "err", err)
				return
			}
			// Draining, unreachable, or overloaded even after retries:
			// back off and keep polling — the fleet outlives restarts.
			log.Warn("claim failed; backing off", "err", err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Second):
			}
			continue
		}
		if order == nil { // long-poll elapsed with no work
			continue
		}
		runOrder(ctx, client, log, order, workers)
	}
}

// runOrder executes one claimed arm under its lease: a heartbeat
// goroutine renews the lease at a third of its window and cancels the
// execution if the server reports the lease gone (the arm was
// reclaimed — finishing it would only produce a stale duplicate).
//
// Worker shutdown (SIGTERM) does NOT cancel the arm: the execution
// context is detached from the loop context, so a draining worker
// finishes what it holds and uploads the result before exiting. Only
// a lease expiry abandons the arm mid-run.
func runOrder(ctx context.Context, client *dlsim.Client, log *slog.Logger, order *dlsim.WorkOrder, workers int) {
	log = log.With("lease", order.Lease, "job", order.Job, "arm", order.Label)
	via := "claim"
	if order.Chained {
		via = "chained" // handed over in the previous upload's receipt
	}
	log.Info("claimed arm", "spec", order.Spec, "scale", order.Scale, "key", order.Key, "via", via)

	// WithoutCancel keeps context values (the fault injector) while
	// severing the arm from shutdown; cancelArm remains the lease
	// expiry's kill switch.
	armCtx, cancelArm := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelArm()
	hbDone := make(chan struct{})
	expired := false
	interval := time.Duration(order.LeaseSeconds * float64(time.Second) / 3)
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-armCtx.Done():
				return
			case <-t.C:
			}
			if _, err := client.HeartbeatWork(armCtx, order.Lease); err != nil {
				if errors.Is(err, dlsim.ErrLeaseExpired) {
					log.Warn("lease expired; abandoning arm")
					expired = true
					cancelArm()
					return
				}
				if armCtx.Err() == nil {
					log.Warn("heartbeat failed; lease may lapse", "err", err)
				}
			}
		}
	}()

	start := time.Now()
	res, runErr := dlsim.ExecuteOrder(armCtx, order, workers)
	cancelArm()
	<-hbDone
	elapsed := time.Since(start)

	if expired {
		// Reclaimed mid-run: the server has redistributed the arm, so
		// there is nothing worth sending.
		return
	}
	result := dlsim.WorkResult{ElapsedSeconds: elapsed.Seconds()}
	if runErr != nil {
		result.Error = runErr.Error()
		log.Warn("arm failed", "err", runErr)
	} else {
		result.Arm = res
		// The checksum covers the bytes this worker actually computed;
		// the server re-hashes what it receives and rejects on any
		// difference. Injected corruption below deliberately tampers
		// AFTER the sum is taken — exactly the lie the audit catches.
		result.Sum = res.Checksum()
		if inj := faultinject.FromContext(ctx); inj != nil && inj.UploadCorrupt() {
			result.Arm.BytesSent++
			log.Warn("fault injection: corrupting upload payload")
		}
		log.Info("arm done", "rounds", len(res.Records), "elapsed", elapsed.Round(time.Millisecond))
	}
	// Uploading on a fresh context: the loop ctx may already be
	// cancelled by shutdown, and the bytes are computed — deliver them.
	upCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	receipt, err := client.CompleteWork(upCtx, order.Lease, result)
	switch {
	case err != nil:
		log.Warn("result upload failed; arm will be reclaimed", "err", err)
	case receipt.Stale:
		log.Info("upload was a stale duplicate (already resolved); discarded")
	}
}
