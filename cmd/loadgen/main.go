// Command loadgen is the closed-loop load harness for phased: it
// synthesizes a deterministic multi-session workload (invitro-style RPS
// ramp, chunk-size distribution, session churn, workload and protocol
// mixes over the synthetic benchmark suite) and drives it against a
// live server over the real wire protocols, reporting client-observed
// ingest and event-delivery latency percentiles, shed rates, and —
// with -phased-bin and -kill-after — recovery time after a kill -9
// under load.
//
// Point it at a running server:
//
//	loadgen -addr localhost:8080 -sessions 500 -target-rps 2 -duration 30s
//
// or let it spawn (and crash, and restart) its own:
//
//	loadgen -phased-bin ./phased -kill-after 10s -duration 25s
//
// or drive a whole cluster — phased nodes behind a spawned phasedgw
// gateway, with a node kill -9 that is never restarted (sessions are
// live-migrated to the survivors instead):
//
//	loadgen -phased-bin ./phased -gateway-bin ./phasedgw -protocols stream -kill-after 10s -duration 25s
//
// Exit codes: 0 on a clean run, 1 on a run or server failure, 2 on bad
// flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"opd/internal/loadgen"
	"opd/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "", "phased server address (host:port); empty requires -phased-bin to spawn one")
		phasedBin = flag.String("phased-bin", "", "phased binary to spawn (and restart after -kill-after)")
		dataDir   = flag.String("data-dir", "", "data dir for the spawned server (default: a temp dir when -kill-after is set, else in-memory; not with -gateway-bin)")

		sessions = flag.Int("sessions", 64, "concurrent session slots")
		startRPS = flag.Float64("start-rps", 2, "per-session chunk rate at ramp start")
		stepRPS  = flag.Float64("step-rps", 0, "per-session rate increase per slot (0 jumps straight to target)")
		target   = flag.Float64("target-rps", 0, "per-session rate ceiling (0 holds the start rate)")
		slot     = flag.Duration("slot", 5*time.Second, "RPS ramp slot duration")
		duration = flag.Duration("duration", 30*time.Second, "run duration")
		chunkMin = flag.Int("chunk-min", 512, "minimum elements per chunk")
		chunkMax = flag.Int("chunk-max", 2048, "maximum elements per chunk")
		lifetime = flag.Duration("lifetime", 0, "mean session lifetime for churn (0 keeps sessions for the whole run)")
		mix      = flag.String("mix", "all", "workload mix: \"all\" or \"name=w,name=w\" over the synthetic benchmarks")
		protos   = flag.String("protocols", "stream", "protocol mix over stream, stream-branch, post, poll (\"name=w,...\")")
		scale    = flag.Int("scale", 2, "synthetic benchmark scale for the backing traces")
		seed     = flag.Uint64("seed", 1, "workload seed; identical seeds synthesize identical workloads")
		retries  = flag.Int("max-retries", 0, "cap on per-operation reconnects and shed retries (0 = unlimited)")

		cw       = flag.Int("cw", 500, "current window size for opened sessions")
		policy   = flag.String("policy", "adaptive", "trailing window policy: constant | adaptive | fixedinterval")
		model    = flag.String("model", "unweighted", "similarity model: unweighted | weighted")
		analyzer = flag.String("analyzer", "threshold", "analyzer: threshold | average")
		param    = flag.Float64("param", 0.6, "analyzer parameter")

		killAfter = flag.Duration("kill-after", 0, "kill -9 the spawned server this far into the run and restart it (requires -phased-bin; with -gateway-bin, kills node 1 and leaves it down)")
		gwBin     = flag.String("gateway-bin", "", "phasedgw binary: run the load through a spawned gateway over -cluster-nodes phased children (requires -phased-bin)")
		clusterN  = flag.Int("cluster-nodes", 3, "with -gateway-bin: how many phased nodes behind the gateway")
		jsonOut   = flag.String("json", "", "write the machine-readable report here")
		verbose   = flag.Bool("v", false, "log harness progress to stderr")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: %s\n", fmt.Sprintf(format, args...))
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected argument %q", flag.Arg(0))
	}
	if *addr == "" && *phasedBin == "" {
		fail("need a target: -addr to use a running server, or -phased-bin to spawn one")
	}
	if *addr != "" && *phasedBin != "" {
		fail("-addr and -phased-bin are mutually exclusive")
	}
	if *killAfter < 0 {
		fail("-kill-after must not be negative (got %v)", *killAfter)
	}
	if *killAfter > 0 && *phasedBin == "" {
		fail("-kill-after needs -phased-bin: only a spawned server can be killed and restarted")
	}
	if *killAfter > 0 && *killAfter >= *duration {
		fail("-kill-after %v must fall inside -duration %v", *killAfter, *duration)
	}
	if *gwBin != "" && *phasedBin == "" {
		fail("-gateway-bin needs -phased-bin: the gateway fronts spawned phased nodes")
	}
	if *gwBin != "" && *clusterN < 2 {
		fail("-cluster-nodes must be >= 2 (got %d)", *clusterN)
	}
	if *dataDir != "" && *phasedBin == "" {
		fail("-data-dir needs -phased-bin: only a spawned server takes a data dir")
	}
	if *dataDir != "" && *gwBin != "" {
		fail("-data-dir does not apply with -gateway-bin: cluster nodes run in memory")
	}
	// The Spec's zero-value conventions (0 target = hold start, 0
	// lifetime = no churn) are for library callers; a literal zero or
	// negative where the flag has no such convention is a typo.
	if *sessions < 1 {
		fail("-sessions must be >= 1 (got %d)", *sessions)
	}
	if *startRPS <= 0 {
		fail("-start-rps must be positive (got %g)", *startRPS)
	}
	if *slot <= 0 {
		fail("-slot must be positive (got %v)", *slot)
	}
	if *duration <= 0 {
		fail("-duration must be positive (got %v)", *duration)
	}
	if *chunkMin < 1 || *chunkMax < *chunkMin {
		fail("chunk size range [%d, %d] is not 1 <= min <= max", *chunkMin, *chunkMax)
	}
	if *lifetime < 0 {
		fail("-lifetime must not be negative (got %v)", *lifetime)
	}
	if *scale < 1 {
		fail("-scale must be >= 1 (got %d)", *scale)
	}
	if *retries < 0 {
		fail("-max-retries must not be negative (got %d)", *retries)
	}

	wlMix, err := loadgen.ParseMix(*mix)
	if err != nil {
		fail("%v", err)
	}
	protoMix, err := loadgen.ParseProtocolMix(*protos)
	if err != nil {
		fail("%v", err)
	}
	spec := loadgen.Spec{
		Sessions:  *sessions,
		StartRPS:  *startRPS,
		StepRPS:   *stepRPS,
		TargetRPS: *target,
		Slot:      *slot,
		Duration:  *duration,
		ChunkMin:  *chunkMin,
		ChunkMax:  *chunkMax,
		Lifetime:  *lifetime,
		Scale:     *scale,
		Mix:       wlMix,
		Protocols: protoMix,
		Seed:      *seed,
		Config: serve.ConfigRequest{
			CW: *cw, Policy: *policy, Model: *model, Analyzer: *analyzer, Param: *param,
		},
		MaxRetries: *retries,
	}
	if _, err := loadgen.NewPlan(spec); err != nil {
		fail("%v", err)
	}

	logger := slog.New(slog.DiscardHandler)
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, spec, *addr, *phasedBin, *gwBin, *dataDir, *killAfter, *clusterN, *jsonOut, logger); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, spec loadgen.Spec, addr, bin, gwBin, dataDir string, killAfter time.Duration, clusterN int, jsonOut string, logger *slog.Logger) error {
	name := "adhoc"
	var rep *loadgen.Report
	var err error
	switch {
	case gwBin != "":
		// Cluster run: the flag-built spec through a spawned gateway;
		// -kill-after fells node 1 for good.
		name = "adhoc-cluster"
		sc := loadgen.Scenario{Name: name, Spec: spec, KillAfter: killAfter, Cluster: clusterN}
		rep, err = loadgen.RunClusterScenario(ctx, bin, gwBin, sc, logger, os.Stdout)

	case bin != "":
		// Run against a spawned server. A kill -9 needs durable state
		// to recover from: without -data-dir it gets a temp dir.
		if killAfter > 0 && dataDir == "" {
			if dataDir, err = os.MkdirTemp("", "loadgen-"); err != nil {
				return err
			}
			defer os.RemoveAll(dataDir)
		}
		sc := loadgen.Scenario{Name: name, Spec: spec, KillAfter: killAfter}
		rep, err = loadgen.RunScenario(ctx, bin, dataDir, sc, logger, os.Stdout)

	default:
		// Drive a server someone else is running.
		var r *loadgen.Runner
		if r, err = loadgen.NewRunner(spec, addr, logger); err != nil {
			return err
		}
		rep = r.Run(ctx)
		rep.WriteHuman(os.Stdout)
	}
	if err != nil {
		return err
	}

	if jsonOut != "" {
		bf := loadgen.NewBenchFile()
		bf.Runs = []loadgen.BenchRun{{Name: name, Report: rep}}
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "\nwrote %s\n", jsonOut)
	}
	if rep.Errors.Unexpected > 0 {
		return fmt.Errorf("run %s observed %d unexpected errors", name, rep.Errors.Unexpected)
	}
	if rep.Sessions.Opened == 0 {
		return fmt.Errorf("run %s never opened a session — is the server reachable?", name)
	}
	return nil
}
