// Command dlsim runs the paper's experiments (Figures 2–10), the
// extension scenarios, and arbitrary declarative scenario specs at a
// chosen scale — locally, as a persisted resumable sweep, or as a
// client of a dlsim service. It is a thin shell over the public
// pkg/dlsim SDK.
//
// Usage:
//
//	dlsim run -figure 3 -scale quick           # one figure, local
//	dlsim run -figure 2 -workers 4             # parallel arms, identical output
//	dlsim run -spec sweep.json -scale tiny     # declarative spec, local
//	dlsim run -spec sweep.json -remote http://127.0.0.1:8080
//	                                           # submit to a service, stream events
//	dlsim sweep -spec sweep.json -out runs/s   # persisted: manifest + arm store + streams
//	dlsim sweep -spec sweep.json -out runs/s -resume
//	dlsim serve -addr 127.0.0.1:8080           # HTTP/JSON job service
//	dlsim serve -checkpoint cp                 # jobs share one result store (cp/store)
//	dlsim worker -server http://127.0.0.1:8080 # pull-mode worker: claim arms,
//	                                           # execute, upload (fleet-scalable)
//	dlsim list                                 # the scenario catalog
//	dlsim list -jobs -addr URL -limit 20       # a service's job table, paged
//	dlsim list -store runs/s/store -figure f2  # cached arms of a result store
//	dlsim version                              # build + spec-schema identity
//
// DLSIM_TOKEN is the service's one shared bearer token: serve locks the
// service with it, and every subcommand that talks to a service sends
// it. It is an environment variable, not a flag, so it stays out of ps.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gossipmia/internal/experiment"
	"gossipmia/pkg/dlsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dlsim:", err)
		os.Exit(1)
	}
}

// run dispatches a subcommand. Anything else — no arguments, or a
// leading flag — gets the usage on stderr and an error.
func run(args []string) error {
	cmd, rest := "", args
	if len(args) > 0 {
		cmd, rest = args[0], args[1:]
	}
	switch cmd {
	case "run", "sweep":
		return runAndSweep(cmd, rest)
	case "serve":
		return serveCmd(rest)
	case "worker":
		return workerCmd(rest)
	case "list":
		return listCmd(rest)
	case "version":
		return versionCmd(rest)
	case "help":
		printUsage(os.Stdout)
		return nil
	default:
		printUsage(os.Stderr)
		return fmt.Errorf("unknown command %q (want run, sweep, serve, worker, list, or version)", cmd)
	}
}

func printUsage(w *os.File) {
	fmt.Fprintln(w, strings.TrimSpace(`
usage: dlsim <command> [flags]

commands:
  run      run a figure/scenario or a declarative spec (locally or against -remote)
  sweep    run a spec persisted to a result directory (-out), resumable (-resume);
           arm results are cached in the embedded store under OUT/store
  serve    expose the engine as an HTTP/JSON job service
  worker   pull arm work orders from a service (-server URL) and execute them;
           any number of workers form a fleet sharing the service's result store
  list     print the scenario catalog; -jobs lists a service's job table,
           -store DIR lists a result store's cached arms (both page with
           -limit/-offset)
  version  print build, Go, and spec-schema identity

Run dlsim <command> -h for each command's flags.`))
}

// tokenEnv names the environment variable holding the shared bearer
// token.
const tokenEnv = "DLSIM_TOKEN"

// newClient builds the client of every subcommand that talks to a
// service, authenticated with $DLSIM_TOKEN when it is set.
func newClient(addr string, opts ...dlsim.ClientOption) *dlsim.Client {
	return dlsim.NewClient(addr, append(opts, dlsim.WithToken(os.Getenv(tokenEnv)))...)
}

// signalContext is the root context of CLI runs: Ctrl-C cancels it,
// which stops engine workers at the next arm/round boundary (leaving
// any -out directory's completed arm caches intact for -resume).
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runAndSweep implements run and sweep. The two share one flag set;
// sweep additionally requires -spec and -out.
func runAndSweep(cmd string, args []string) (retErr error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var diag diagFlags
	diag.register(fs)
	figure := fs.String("figure", "all", `catalog entry to run (a name printed by dlsim list), or "all"`)
	specPath := fs.String("spec", "", "run a declarative scenario spec (JSON file) instead of a catalog figure")
	outDir := fs.String("out", "", "result directory: manifest, arm cache (embedded store under OUT/store), streamed events, results.csv (requires -spec)")
	resume := fs.Bool("resume", false, "with -spec and -out: skip arms whose cached results already exist in the out directory")
	events := fs.String("events", "jsonl", `with -out: per-arm event stream format, "jsonl", "csv", or "none"`)
	remote := fs.String("remote", "", "submit the run to a dlsim service at this base URL instead of executing locally (requires -spec)")
	scaleName := fs.String("scale", "quick", "experiment scale: tiny, quick, or paper")
	seed := fs.Int64("seed", 0, "override the scale's base seed (0 keeps the preset)")
	csv := fs.Bool("csv", false, "also print per-round CSV series for every arm")
	plotFlag := fs.Bool("plot", false, "also render ASCII tradeoff scatter plots")
	repeats := fs.Int("repeats", 0, "replicate one spec-backed figure over N >= 2 seeds and report bootstrap CIs instead of its table")
	workers := fs.Int("workers", 0, "worker goroutines for arms, intra-arm tick execution, and per-node evaluation (0 = one per CPU, 1 = serial); results are identical for any value")
	transport := fs.String("transport", "", `network transport overlay: "instant" (default), "latency", or "lossy"`)
	latency := fs.Float64("latency", 0, "mean per-link delay in ticks (implies -transport latency; jitter is 30% of the mean)")
	churn := fs.Float64("churn", 0, "fraction of nodes that leave at 1/3 of the run and rejoin at 2/3")
	drop := fs.Float64("drop", 0, "probability that a transmission is lost (implies -transport lossy)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", *workers)
	}
	if *repeats != 0 && *repeats < 2 {
		return fmt.Errorf("-repeats needs at least 2 seeds, got %d", *repeats)
	}
	// An event stream is written into the result directory only: an
	// explicit -events without one would be silently ignored.
	eventsSet := false
	fs.Visit(func(f *flag.Flag) { eventsSet = eventsSet || f.Name == "events" })
	if eventsSet && *outDir == "" {
		return fmt.Errorf("-events requires -out")
	}

	stopDiag, err := diag.start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopDiag(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	sc, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers
	net, churnFraction := netOverlay(*transport, *latency, *churn, *drop)

	if cmd == "sweep" && (*specPath == "" || *outDir == "") {
		return fmt.Errorf("sweep requires -spec and -out")
	}

	ctx, stop := signalContext()
	defer stop()

	if *specPath != "" {
		if *figure != "all" {
			return fmt.Errorf("-spec and -figure are mutually exclusive (got -figure %s)", *figure)
		}
		if *repeats != 0 {
			return fmt.Errorf("-repeats does not apply to -spec runs")
		}
		// A spec file declares its networks per arm; the overlay flags
		// fill in catalog entries only.
		if net != nil || churnFraction != 0 {
			return fmt.Errorf("network overlay flags cannot be combined with -spec: declare the network per arm in the spec file")
		}
		if *remote != "" {
			if *outDir != "" || *resume {
				return fmt.Errorf("-out and -resume are local-run flags and cannot be combined with -remote")
			}
			return runRemote(ctx, *remote, *specPath, *scaleName, *seed, *workers, *csv, *plotFlag)
		}
		return runSpecFile(ctx, *specPath, *scaleName, *seed, *workers, *outDir, *resume, *events, *csv, *plotFlag)
	}
	if *remote != "" {
		return fmt.Errorf("-remote requires -spec (submit a spec file to the service)")
	}
	if *outDir != "" || *resume {
		return fmt.Errorf("-out and -resume require -spec")
	}

	entries := experiment.Catalog()
	if *figure != "all" {
		e, ok := experiment.CatalogEntryByName(*figure)
		if !ok {
			return fmt.Errorf("unknown figure %q (run dlsim list for the catalog)", *figure)
		}
		entries = []experiment.CatalogEntry{e}
	}
	// The overlay is filled into each entry's spec before anything runs;
	// an entry that cannot take one (marked - by dlsim list) refuses here.
	for i := range entries {
		if entries[i], err = entries[i].Overlaid(net, churnFraction); err != nil {
			return err
		}
	}
	if *repeats == 0 {
		for _, e := range entries {
			if err := runEntry(ctx, e, sc, *csv, *plotFlag); err != nil {
				return fmt.Errorf("figure %s: %w", e.Name, err)
			}
		}
		return nil
	}
	if *figure == "all" {
		return fmt.Errorf("-repeats replicates one figure and does not apply to -figure all")
	}
	e := entries[0]
	if !e.Runnable() {
		return fmt.Errorf("-figure %s renders text and cannot be replicated: -repeats applies to spec-backed entries", e.Name)
	}
	if *csv || *plotFlag {
		return fmt.Errorf("-repeats prints bootstrap intervals, not per-round series: it cannot be combined with -csv or -plot")
	}
	rep, err := experiment.Replicate(func(rsc experiment.Scale) (*experiment.FigureResult, error) {
		return e.Run(ctx, rsc)
	}, sc, *repeats, 0.95)
	if err != nil {
		return err
	}
	fmt.Println(rep.Table())
	return nil
}

// newRunner assembles the SDK runner the CLI's local spec runs go
// through.
func newRunner(scaleName string, seed int64, workers int) (*dlsim.Runner, error) {
	opts := []dlsim.Option{dlsim.WithScale(scaleName), dlsim.WithWorkers(workers)}
	if seed != 0 {
		opts = append(opts, dlsim.WithSeed(seed))
	}
	return dlsim.NewRunner(opts...)
}

// runSpecFile loads and runs a declarative spec through the SDK,
// optionally persisting the run (manifest, arm cache, event streams) to
// a result directory.
func runSpecFile(ctx context.Context, path, scaleName string, seed int64, workers int, outDir string, resume bool, events string, csv, renderPlot bool) error {
	if resume && outDir == "" {
		return fmt.Errorf("-resume requires -out")
	}
	sp, err := dlsim.LoadSpec(path)
	if err != nil {
		return err
	}
	runner, err := newRunner(scaleName, seed, workers)
	if err != nil {
		return err
	}
	var res *dlsim.Result
	if outDir == "" {
		res, err = runner.Run(ctx, sp)
	} else {
		var report *dlsim.RunReport
		res, report, err = runner.RunDir(ctx, sp, dlsim.DirOptions{OutDir: outDir, Resume: resume, Events: events})
		if err == nil {
			cached := 0
			for _, a := range report.Arms {
				if a.Cached {
					cached++
				}
			}
			fmt.Printf("spec %s (hash %s): %d arms (%d from cache) -> %s\n",
				sp.Name, report.SpecHash[:12], len(report.Arms), cached, outDir)
		}
	}
	if err != nil {
		return err
	}
	return printFigure(experiment.FigureOf(res), csv, renderPlot)
}

// runRemote submits a spec to a dlsim service, streams its round
// records as they are produced, and prints the final table.
func runRemote(ctx context.Context, base, path, scaleName string, seed int64, workers int, csv, renderPlot bool) error {
	sp, err := dlsim.LoadSpec(path)
	if err != nil {
		return err
	}
	client := newClient(base)
	job, err := client.Submit(ctx, dlsim.JobRequest{Spec: sp, Scale: scaleName, Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("job %s (%s, key %s)\n", job.ID, job.Status, job.Key[:12])
	// Ctrl-C must not strand the job server-side: it would keep holding
	// one of the service's worker slots. Best-effort cancel on a fresh
	// context (ctx is already dead at that point).
	defer func() {
		if ctx.Err() == nil {
			return
		}
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, cerr := client.Cancel(cctx, job.ID); cerr == nil {
			fmt.Fprintf(os.Stderr, "dlsim: cancelled job %s\n", job.ID)
		} else {
			fmt.Fprintf(os.Stderr, "dlsim: could not cancel job %s: %v\n", job.ID, cerr)
		}
	}()
	if err := client.Events(ctx, job.ID, func(ev dlsim.Event) error {
		fmt.Printf("event %s round=%d acc=%.4f mia=%.4f\n", ev.Arm, ev.Round, ev.TestAcc, ev.MIAAcc)
		return nil
	}); err != nil {
		return err
	}
	job, err = client.Job(ctx, job.ID)
	if err != nil {
		return err
	}
	switch job.Status {
	case dlsim.StatusDone:
		return printFigure(experiment.FigureOf(job.Result), csv, renderPlot)
	case dlsim.StatusCancelled:
		return fmt.Errorf("job %s was cancelled", job.ID)
	default:
		return fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
	}
}

// runEntry runs one catalog entry and prints its output. Text entries
// render directly; spec-backed entries run through the generic
// executor under ctx.
func runEntry(ctx context.Context, e experiment.CatalogEntry, sc experiment.Scale, csv, renderPlot bool) error {
	if !e.Runnable() {
		out, err := e.Render(sc)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}
	fig, err := e.Run(ctx, sc)
	if err != nil {
		return err
	}
	return printFigure(fig, csv, renderPlot)
}

// printFigure prints a run: its table, then optionally the tradeoff
// plot and per-arm CSV series. Every run goes through it — a catalog
// entry as the engine returns it, a spec run (local or remote) through
// experiment.FigureOf.
func printFigure(fig *experiment.FigureResult, csv, renderPlot bool) error {
	fmt.Println(fig.Table())
	if renderPlot {
		p, err := fig.TradeoffPlot()
		if err != nil {
			return fmt.Errorf("plot: %w", err)
		}
		fmt.Println(p)
	}
	if csv {
		for _, arm := range fig.Arms {
			fmt.Printf("# %s\n%s\n", arm.Label, arm.Series.CSV())
		}
	}
	return nil
}

// listCmd prints the catalog (the local build's or a remote service's),
// a service's job table (-jobs, paged with -limit/-offset), or the
// cached arms of an embedded result store (-store DIR, filtered by
// -figure and paged the same way).
func listCmd(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	addr := fs.String("addr", "", "query a dlsim service at this base URL instead of the local build")
	jobsFlag := fs.Bool("jobs", false, "list the jobs of the service at -addr, newest first")
	storeDir := fs.String("store", "", "list the cached arms of the embedded result store at this directory")
	figure := fs.String("figure", "", "with -store: only arms of this spec/figure name")
	limit := fs.Int("limit", 0, "with -jobs or -store: page size (0 = everything)")
	offset := fs.Int("offset", 0, "with -jobs or -store: rows to skip before the page")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *limit < 0 || *offset < 0 {
		return fmt.Errorf("-limit and -offset must be >= 0")
	}
	switch {
	case *jobsFlag && *storeDir != "":
		return fmt.Errorf("-jobs and -store are mutually exclusive")
	case *jobsFlag:
		if *addr == "" {
			return fmt.Errorf("-jobs requires -addr (the service to list)")
		}
		return listJobs(*addr, *limit, *offset)
	case *storeDir != "":
		if *addr != "" {
			return fmt.Errorf("-store lists a local store and cannot be combined with -addr")
		}
		page, total, err := experiment.ListStoreArms(*storeDir, *figure, *limit, *offset)
		if err != nil {
			return err
		}
		fmt.Print(experiment.FormatStoreArms(page, total, *offset))
		return nil
	case *figure != "" || *limit != 0 || *offset != 0:
		return fmt.Errorf("-figure, -limit, and -offset require -jobs or -store")
	}
	if *addr == "" {
		printCatalog(os.Stdout)
		return nil
	}
	ctx, stop := signalContext()
	defer stop()
	entries, err := newClient(*addr).Catalog(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("figures and scenarios at %s:\n", *addr)
	for _, e := range entries {
		kind := " "
		if !e.Runnable {
			kind = "*"
		}
		fmt.Printf("  %-15s %s%s\n", e.Name, kind, e.Desc)
	}
	fmt.Println("entries marked * are text-only and cannot run as service jobs")
	return nil
}

// listJobs prints one window of a service's job table, then the
// service's /v1/statz counters (queue depth, worker fleet, cache).
func listJobs(addr string, limit, offset int) error {
	ctx, stop := signalContext()
	defer stop()
	client := newClient(addr)
	page, err := client.JobsPage(ctx, limit, offset)
	if err != nil {
		return err
	}
	fmt.Printf("%d jobs at %s", page.Total, addr)
	if len(page.Jobs) < page.Total {
		fmt.Printf(" (showing %d-%d)", offset+1, offset+len(page.Jobs))
	}
	fmt.Println()
	for _, j := range page.Jobs {
		line := fmt.Sprintf("  %s\t%-9s %s (scale %s, seed %d)", j.ID, j.Status, j.Spec, j.Scale, j.Seed)
		if j.Error != "" {
			line += " error: " + j.Error
		}
		fmt.Println(line)
	}
	st, err := client.Statz(ctx)
	if err != nil {
		return fmt.Errorf("service status: %w", err)
	}
	fmt.Printf("service %s: %d queued (depth %d), %d running (%d slots)\n",
		st.Status, st.Queued, st.QueueDepth, st.Running, st.Slots)
	fmt.Printf("work: queue=%d leases=%d workers=%d claims=%d chained=%d completes=%d reclaims=%d stale=%d arms(remote/local)=%d/%d\n",
		st.Work.QueueDepth, st.Work.ActiveLeases, st.Work.Workers,
		st.Work.Claims, st.Work.Chained, st.Work.Completes, st.Work.Reclaims, st.Work.StaleUploads,
		st.Work.RemoteArms, st.Work.LocalArms)
	if st.Work.Poisoned+st.Work.Rejected+st.Work.Quarantines+st.Work.Audits > 0 {
		fmt.Printf("health: poisoned=%d rejected=%d quarantines=%d audits=%d/%d failed\n",
			st.Work.Poisoned, st.Work.Rejected, st.Work.Quarantines,
			st.Work.AuditsFailed, st.Work.Audits)
	}
	if len(st.Work.PerWorker) > 0 {
		fmt.Printf("%-24s %-12s %7s %9s %8s %6s %10s\n",
			"worker", "state", "leases", "completes", "expiries", "errors", "mismatches")
		for _, row := range st.Work.PerWorker {
			fmt.Printf("%-24s %-12s %7d %9d %8d %6d %10d\n",
				row.Name, row.State, row.Leases, row.Completes,
				row.Expiries, row.Errors, row.Mismatches)
		}
	}
	fmt.Printf("cache: %d hits / %d misses (%.1f%% hit rate)\n",
		st.Cache.Hits, st.Cache.Misses, 100*st.Cache.HitRate)
	return nil
}

// versionCmd prints the build identity (module, Go, spec schema) and
// the kernel tier and architecture of the process that answered.
func versionCmd(args []string) error {
	fs := flag.NewFlagSet("version", flag.ContinueOnError)
	addr := fs.String("addr", "", "query a dlsim service at this base URL instead of the local build")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := dlsim.Version()
	if *addr != "" {
		ctx, stop := signalContext()
		defer stop()
		remote, err := newClient(*addr).Version(ctx)
		if err != nil {
			return err
		}
		v = *remote
	}
	fmt.Printf("dlsim %s\nmodule: %s\ngo: %s\nspec-schema: %s\n",
		v.Version, v.Module, v.GoVersion, v.SpecSchemaHash)
	if v.Kernels != "" { // a service older than the field does not say
		fmt.Printf("kernels: %s\n", v.Kernels)
	}
	if v.Arch != "" {
		fmt.Printf("arch: %s\n", v.Arch)
	}
	return nil
}

// netOverlay folds the network flags into the run-wide network that is
// filled into every arm of a catalog entry's spec — one transport
// description (nil when no transport flag says anything) and a churn
// fraction — inferring the transport from the strongest flag given.
// CatalogEntry.Overlaid validates it.
func netOverlay(transport string, latency, churn, drop float64) (*dlsim.Net, float64) {
	// An explicit -transport instant with no latency knobs means the
	// same as omitting the flag. With latency knobs it stays "instant"
	// and validation rejects the contradiction.
	if transport == "instant" && latency == 0 {
		transport = ""
	}
	if transport == "" {
		switch {
		case drop != 0:
			transport = "lossy"
		case latency != 0:
			transport = "latency"
		default:
			return nil, churn
		}
	}
	return &dlsim.Net{
		Transport:     transport,
		LatencyMean:   latency,
		LatencyJitter: latency * 0.3,
		DropProb:      drop,
	}, churn
}

func printCatalog(w *os.File) {
	fmt.Fprintln(w, "figures and scenarios (dlsim run -figure NAME):")
	for _, e := range experiment.Catalog() {
		text, pinned := " ", " "
		if !e.Runnable() {
			text = "*"
		}
		if !e.TakesOverlay() {
			pinned = "-"
		}
		fmt.Fprintf(w, "  %-15s %s%s %s\n", e.Name, text, pinned, e.Desc)
	}
	fmt.Fprintln(w, "  all                every entry above, in catalog order")
	fmt.Fprintln(w, strings.TrimSpace(`
* renders text instead of running a spec: no -repeats, and not a service job
- takes no network overlay; the overlay flags -transport, -latency, -churn, -drop
  apply to every other entry
declarative specs: dlsim run -spec file.json, or persisted and resumable:
  dlsim sweep -spec file.json -out dir [-resume] (see examples/specs/)
service mode: dlsim serve; submit with dlsim run -spec file.json -remote URL`))
}

func scaleByName(name string) (experiment.Scale, error) {
	return experiment.ScaleByName(name)
}
